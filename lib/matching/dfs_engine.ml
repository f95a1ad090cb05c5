(* Augmenting-path DFS with a lookahead pass: before descending, each visited
   row first checks all its neighbours for residual capacity (Duff-Kaya-Uçar
   style lookahead), which avoids most deep searches on easy instances. *)

module G = Bipartite.Graph
open Engine_common

(* Probe points: the lookahead-hit ratio (hits / augmentations) is the whole
   story of this engine — near 1.0 on easy instances it degenerates to a
   second greedy pass, and descents only pay on the hard tail. *)
let c_scans = Obs.Metrics.counter "matching.dfs.scans"
let c_lookahead_hits = Obs.Metrics.counter "matching.dfs.lookahead_hits"
let c_descents = Obs.Metrics.counter "matching.dfs.descents"
let c_augmentations = Obs.Metrics.counter "matching.dfs.augmentations"

let run ?(stats = fresh_stats ()) g ~caps =
  let st = create g ~caps in
  greedy_init st;
  let visited = Array.make g.G.n2 (-1) in
  let round = ref 0 in
  let rec augment v =
    stats.scans <- stats.scans + 1;
    Obs.Metrics.incr c_scans;
    (* Lookahead: directly claim a processor with spare capacity. *)
    let direct = ref (-1) in
    G.iter_neighbors g v (fun u _w -> if !direct < 0 && residual st u > 0 then direct := u);
    if !direct >= 0 then begin
      assign st v !direct;
      stats.augmentations <- stats.augmentations + 1;
      Obs.Metrics.incr c_lookahead_hits;
      true
    end
    else begin
      Obs.Metrics.incr c_descents;
      (* Descend: try to relocate one occupant of a saturated neighbour. *)
      let rec over_neighbors e =
        if e >= g.G.off.(v + 1) then false
        else begin
          let u = g.G.adj.(e) in
          if visited.(u) = !round then over_neighbors (e + 1)
          else begin
            visited.(u) <- !round;
            (* In place: u's occupants change only when a relocation
               succeeds, and success ends this loop. *)
            let occupants = st.matched_of.(u) in
            let rec try_occupants i =
              if i >= Ds.Vec.length occupants then false
              else if augment (Ds.Vec.get occupants i) then begin
                (* The occupant found a new home via the recursive call;
                   take its slot in u's occupant list. *)
                replace_at st ~v ~from:u i;
                true
              end
              else try_occupants (i + 1)
            in
            if try_occupants 0 then true else over_neighbors (e + 1)
          end
        end
      in
      over_neighbors g.G.off.(v)
    end
  in
  for v = 0 to g.G.n1 - 1 do
    if st.mate1.(v) < 0 then begin
      incr round;
      if augment v then Obs.Metrics.incr c_augmentations
    end
  done;
  st.mate1
