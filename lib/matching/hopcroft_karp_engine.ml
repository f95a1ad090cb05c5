(* Hopcroft–Karp generalized to V2 capacities: a BFS phase layers the rows by
   alternating distance (a processor with residual capacity terminates the
   layering), then a layered DFS augments along vertex-disjoint shortest
   paths.  O(sqrt(V) * E) phases bound carries over from the unit case.

   That bound needs every vertex scanned O(1) times per phase (Katrenič &
   Semanišin, arXiv:1103.1091), and a saturated processor holds up to D
   occupants.  So each phase layers and tries them once:

   - BFS.  A saturated processor is expanded when a row first reaches it
     in the phase: it records its layer (that row's dist + 1) and layers
     its occupants.  Later reaches skip it.  A row is an
     occupant of exactly one processor and reachable only through it, so
     every occupant is still unreached at the first expansion, and [dist]
     is what rescanning at every reach would give.
   - DFS.  The occupants of an expanded processor u hold dist = layer u
     (untried), layer u - 1 (rows that moved in during this phase) or inf
     (rows that failed).  A row at dist k looks for occupants at k + 1,
     so u is skipped for every row not at layer u - 1 (a row at layer
     u - 2 cannot reach u, or the BFS would have given u a smaller
     layer).  For the others, a per-processor cursor walks the occupant
     vector once per phase: positions before it hold failed or moved-in
     rows, which never qualify again, and positions from it on are
     untried.  The newcomer takes the victim's slot by index.
   - The one exception: a processor with residual capacity at BFS time
     that [assign] fills during the DFS.  The rows placed on it in this
     phase do not share one layer, so every reach scans all of them.  The
     occupants it held at BFS time were never reached and are skipped.
   - A saturated processor the BFS never expanded holds only unreached
     rows and is skipped.

   Occupant vectors are read in place: they change only when an augmenting
   path succeeds, and success ends every enclosing loop.  The paths found,
   and so the matching, are exactly those of a full rescan at every reach;
   a phase costs O(n + m) plus the scans of processors filled in it. *)

module G = Bipartite.Graph
open Engine_common

let inf = max_int

(* Probe points (Sec. VI): phase count is the HK complexity driver, the
   augmenting-path length histogram shows the sqrt(V) phase structure —
   early phases find length-1 paths, late phases long ones. *)
let c_phases = Obs.Metrics.counter "matching.hk.phases"
let c_augmentations = Obs.Metrics.counter "matching.hk.augmentations"
let c_scans = Obs.Metrics.counter "matching.hk.scans"
let c_layer_edges = Obs.Metrics.counter "matching.hk.bfs_layer_edges"
let c_occupant_scans = Obs.Metrics.counter "matching.hk.occupant_scans"
let h_path_len = Obs.Metrics.histogram "matching.hk.aug_path_len"

(* Values of [layer.(u)] besides a BFS layer (at least 1): a processor the
   BFS did not expand, and one that [assign] placed rows on in this
   phase. *)
let unexpanded = 0
let full_scan = -1

let run ?(stats = fresh_stats ()) g ~caps =
  let st = create g ~caps in
  greedy_init st;
  let dist = Array.make g.G.n1 inf in
  (* BFS queue: every row enters it at most once per phase. *)
  let queue = Array.make g.G.n1 0 in
  (* Per processor, for the current phase: its layer and the DFS cursor
     into its occupants (set with the layer). *)
  let layer = Array.make g.G.n2 unexpanded in
  let cursor = Array.make g.G.n2 0 in
  let bfs () =
    stats.phases <- stats.phases + 1;
    Obs.Metrics.incr c_phases;
    (* Phase event: the per-phase augmentation trajectory is the paper's
       phase-structure argument made visible in the event log. *)
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "hk.phase"
        [ Obs.Events.int "phase" stats.phases; Obs.Events.int "augmentations" stats.augmentations ];
    Array.fill dist 0 g.G.n1 inf;
    Array.fill layer 0 g.G.n2 unexpanded;
    let tail = ref 0 in
    for v = 0 to g.G.n1 - 1 do
      if st.mate1.(v) < 0 then begin
        dist.(v) <- 0;
        queue.(!tail) <- v;
        incr tail
      end
    done;
    let found = ref inf and head = ref 0 and layer_edges = ref 0 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let dv = dist.(v) in
      if dv < !found then begin
        layer_edges := !layer_edges + g.G.off.(v + 1) - g.G.off.(v);
        for e = g.G.off.(v) to g.G.off.(v + 1) - 1 do
          let u = g.G.adj.(e) in
          if residual st u > 0 then found := min !found (dv + 1)
          else if layer.(u) = unexpanded then begin
            layer.(u) <- dv + 1;
            cursor.(u) <- 0;
            let occupants = st.matched_of.(u) in
            Obs.Metrics.add c_occupant_scans (Ds.Vec.length occupants);
            Ds.Vec.iter
              (fun v' ->
                dist.(v') <- dv + 1;
                queue.(!tail) <- v';
                incr tail)
              occupants
          end
        done
      end
    done;
    Obs.Metrics.add c_layer_edges !layer_edges;
    !found < inf
  in
  (* [depth] counts rows on the alternating path so far; a successful
     augmentation reaching residual capacity at depth d uses 2d+1 edges. *)
  let rec dfs v ~depth =
    stats.scans <- stats.scans + 1;
    Obs.Metrics.incr c_scans;
    let next = dist.(v) + 1 in
    let rec over_edges e =
      if e >= g.G.off.(v + 1) then begin
        dist.(v) <- inf;
        false
      end
      else begin
        let u = g.G.adj.(e) in
        if residual st u > 0 then begin
          if layer.(u) = unexpanded then begin
            (* Its occupants so far are unreached: skip them once full. *)
            layer.(u) <- full_scan;
            cursor.(u) <- Ds.Vec.length st.matched_of.(u)
          end;
          assign st v u;
          stats.augmentations <- stats.augmentations + 1;
          Obs.Metrics.incr c_augmentations;
          Obs.Metrics.observe h_path_len (float_of_int ((2 * depth) + 1));
          true
        end
        else if layer.(u) = next then try_layered u e
        else if layer.(u) = full_scan then try_all u e cursor.(u)
        else over_edges (e + 1)
      end
    (* Every occupant from the cursor on is untried and at dist [next]. *)
    and try_layered u e =
      let occupants = st.matched_of.(u) in
      let i = cursor.(u) in
      if i >= Ds.Vec.length occupants then over_edges (e + 1)
      else begin
        cursor.(u) <- i + 1;
        Obs.Metrics.incr c_occupant_scans;
        if dfs (Ds.Vec.get occupants i) ~depth:(depth + 1) then begin
          replace_at st ~v ~from:u i;
          true
        end
        else try_layered u e
      end
    and try_all u e i =
      let occupants = st.matched_of.(u) in
      if i >= Ds.Vec.length occupants then over_edges (e + 1)
      else begin
        Obs.Metrics.incr c_occupant_scans;
        let v' = Ds.Vec.get occupants i in
        if dist.(v') = next && dfs v' ~depth:(depth + 1) then begin
          replace_at st ~v ~from:u i;
          true
        end
        else try_all u e (i + 1)
      end
    in
    over_edges g.G.off.(v)
  in
  while bfs () do
    for v = 0 to g.G.n1 - 1 do
      if st.mate1.(v) < 0 then ignore (dfs v ~depth:0)
    done
  done;
  st.mate1
