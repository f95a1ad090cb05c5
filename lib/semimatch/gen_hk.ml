module G = Bipartite.Graph

(* Probe points mirror the Hopcroft–Karp matching engine: phases (one layered
   BFS each), completed cost-reducing augmentations, frozen level regions,
   and the distribution of augmenting-path lengths in graph edges. *)
let c_phases = Obs.Metrics.counter "semimatch.genhk.phases"
let c_augmentations = Obs.Metrics.counter "semimatch.genhk.augmentations"
let c_freezes = Obs.Metrics.counter "semimatch.genhk.freezes"
let h_path_len = Obs.Metrics.histogram "semimatch.genhk.aug_path_len"

type solution = {
  assignment : Bip_assignment.t;
  makespan : int;
  loads : int array;
  total_flow_time : int;
  phases : int;
}

let check g =
  if not (G.is_unit_weighted g) then invalid_arg "Gen_hk: weights must all be 1";
  if G.has_isolated_task g then invalid_arg "Gen_hk: task with no allowed processor";
  if g.G.n1 > 0 && g.G.n2 = 0 then invalid_arg "Gen_hk: no processors"

type state = {
  g : G.t;
  mate : int array; (* task -> chosen edge *)
  loads : int array;
  assigned : int Ds.Vec.t array; (* machine -> tasks currently on it *)
  active : bool array; (* false once the machine's level region is frozen *)
  dist : int array; (* machine -> BFS layer this phase *)
  stamp : int array; (* machine -> phase that wrote [dist] *)
  used : int array; (* machine -> phase that consumed it for a path *)
  queue : int Queue.t;
  reached : int Ds.Vec.t; (* machines discovered by the current BFS *)
}

let remove_from st u v =
  let occ = st.assigned.(u) in
  let n = Ds.Vec.length occ in
  let rec go i =
    if Ds.Vec.get occ i = v then begin
      Ds.Vec.set occ i (Ds.Vec.get occ (n - 1));
      ignore (Ds.Vec.pop occ)
    end
    else go (i + 1)
  in
  go 0

(* Deterministic greedy start: tasks by non-decreasing degree (constrained
   ones first), each onto its least-loaded allowed machine, ties to the
   lowest machine index.  Same seeding idea as the matching engines'
   [greedy_init]; only the invariant differs (a full semi-matching rather
   than a partial matching). *)
let greedy_init st =
  let g = st.g in
  let order =
    Ds.Counting_sort.permutation ~n:g.G.n1 ~key:(G.degree g) ~max_key:(G.max_degree g)
  in
  Array.iter
    (fun v ->
      let best_e = ref (-1) and best_u = ref (-1) in
      G.fold_neighbors g v ~init:() ~f:(fun () ~edge u _w ->
          if !best_u < 0 || st.loads.(u) < st.loads.(!best_u) then begin
            best_u := u;
            best_e := edge
          end);
      st.mate.(v) <- !best_e;
      st.loads.(!best_u) <- st.loads.(!best_u) + 1;
      Ds.Vec.push st.assigned.(!best_u) v)
    order

(* One layered BFS from every active machine of load [lmax].  Writes
   [dist]/[reached]; returns the layer of the nearest active machine with
   load <= lmax - 2, or -1 when no cost-reducing path leaves the sources'
   region.  Layers beyond the first target layer are not expanded, so the
   subsequent DFS walks shortest paths only. *)
let bfs st ~phase ~lmax =
  let g = st.g in
  Queue.clear st.queue;
  Ds.Vec.clear st.reached;
  for u = 0 to g.G.n2 - 1 do
    if st.active.(u) && st.loads.(u) = lmax then begin
      st.dist.(u) <- 0;
      st.stamp.(u) <- phase;
      Ds.Vec.push st.reached u;
      Queue.add u st.queue
    end
  done;
  let found = ref (-1) in
  while not (Queue.is_empty st.queue) do
    let u = Queue.pop st.queue in
    let d = st.dist.(u) in
    if !found < 0 || d < !found then
      Ds.Vec.iter
        (fun v ->
          G.iter_neighbors g v (fun u' _w ->
              if st.active.(u') && st.stamp.(u') <> phase then begin
                st.stamp.(u') <- phase;
                st.dist.(u') <- d + 1;
                Ds.Vec.push st.reached u';
                if !found < 0 && st.loads.(u') <= lmax - 2 then found := d + 1;
                Queue.add u' st.queue
              end))
        st.assigned.(u)
  done;
  !found

(* Layered DFS down the BFS levels: from a load-lmax source, follow
   dist-increasing edges through machines not yet consumed this phase, and
   stop at layer [found] on a machine whose load is still <= lmax - 2
   (augmentations earlier in the phase may have filled a target).  On
   success every visited machine hands one task to its successor — post-
   order, so an intermediate machine gives a task away before receiving
   one — which decrements the source, increments the terminal and leaves
   every load in between unchanged.  Machines are consumed whether the
   probe succeeded or failed (vertex-disjoint paths, dead ends pruned), so
   a phase is linear in the edges it touches. *)
let rec dfs st ~phase ~lmax ~found u =
  st.used.(u) <- phase;
  if st.dist.(u) = found then st.loads.(u) <= lmax - 2
  else begin
    let moved = ref false in
    let occ = st.assigned.(u) in
    let i = ref 0 in
    while (not !moved) && !i < Ds.Vec.length occ do
      let v = Ds.Vec.get occ !i in
      G.fold_neighbors st.g v ~init:() ~f:(fun () ~edge u' _w ->
          if
            (not !moved)
            && st.active.(u')
            && st.stamp.(u') = phase
            && st.dist.(u') = st.dist.(u) + 1
            && st.used.(u') <> phase
            && dfs st ~phase ~lmax ~found u'
          then begin
            remove_from st u v;
            st.mate.(v) <- edge;
            Ds.Vec.push st.assigned.(u') v;
            st.loads.(u) <- st.loads.(u) - 1;
            st.loads.(u') <- st.loads.(u') + 1;
            moved := true
          end);
      incr i
    done;
    !moved
  end

let solve g =
  check g;
  let st =
    {
      g;
      mate = Array.make g.G.n1 (-1);
      loads = Array.make g.G.n2 0;
      assigned = Array.init g.G.n2 (fun _ -> Ds.Vec.create ());
      active = Array.make g.G.n2 true;
      dist = Array.make g.G.n2 0;
      stamp = Array.make g.G.n2 (-1);
      used = Array.make g.G.n2 (-1);
      queue = Queue.create ();
      reached = Ds.Vec.create ();
    }
  in
  if g.G.n1 > 0 then greedy_init st;
  let phases = ref 0 in
  let running = ref true in
  while !running do
    let lmax = ref 0 in
    for u = 0 to g.G.n2 - 1 do
      if st.active.(u) && st.loads.(u) > !lmax then lmax := st.loads.(u)
    done;
    (* Loads 0 and 1 admit no cost-reducing path (a target would need load
       <= lmax - 2 < 0), so the remaining region is already settled. *)
    if !lmax <= 1 then running := false
    else begin
      incr phases;
      Obs.Metrics.incr c_phases;
      let phase = !phases in
      let found = bfs st ~phase ~lmax:!lmax in
      if found < 0 then begin
        (* No shortest cost-reducing path leaves the set reachable from the
           max-load machines: every reached machine carries lmax-1 or lmax
           and the tasks on them have all their edges inside the set, so its
           two-level distribution is forced.  Freeze the region; the
           remaining active machines all sit below lmax. *)
        Obs.Metrics.incr c_freezes;
        if Obs.is_enabled () then
          Obs.Events.emit "genhk.freeze"
            [
              Obs.Events.int "level" !lmax;
              Obs.Events.int "machines" (Ds.Vec.length st.reached);
            ];
        Ds.Vec.iter (fun u -> st.active.(u) <- false) st.reached
      end
      else
        for u = 0 to g.G.n2 - 1 do
          if
            st.active.(u)
            && st.stamp.(u) = phase
            && st.dist.(u) = 0
            && st.used.(u) <> phase
            && st.loads.(u) = !lmax
            && dfs st ~phase ~lmax:!lmax ~found u
          then begin
            Obs.Metrics.incr c_augmentations;
            (* [found] machine hops = 2*found graph edges per path. *)
            Obs.Metrics.observe h_path_len (float_of_int (2 * found))
          end
        done
    end
  done;
  {
    assignment = Bip_assignment.of_edges g st.mate;
    makespan = Array.fold_left max 0 st.loads;
    loads = st.loads;
    total_flow_time = Harvey.flow_time st.loads;
    phases = !phases;
  }
