module G = Bipartite.Graph

let c_matchings = Obs.Metrics.counter "semimatch.dnc.matchings"
let c_splits = Obs.Metrics.counter "semimatch.dnc.splits"
let c_stitch_flips = Obs.Metrics.counter "semimatch.dnc.stitch_flips"
let h_sub_tasks = Obs.Metrics.histogram "semimatch.dnc.subproblem_tasks"

type solution = {
  assignment : Bip_assignment.t;
  makespan : int;
  loads : int array;
  total_flow_time : int;
  matchings : int;
}

let check g =
  if not (G.is_unit_weighted g) then invalid_arg "Divide_conquer: weights must all be 1";
  if G.has_isolated_task g then
    invalid_arg "Divide_conquer: task with no allowed processor";
  if g.G.n1 > 0 && g.G.n2 = 0 then invalid_arg "Divide_conquer: no processors"

(* ---- the recursion -------------------------------------------------- *)

(* [go] assigns [tasks] (original ids) to [machines] (original ids), writing
   machine choices into [mate_u], under the knowledge that the sub-instance
   can be scheduled with every load in [lo, hi].  The split level
   m = (lo+hi)/2 drives a capacitated maximum matching: full coverage
   certifies optimal makespan <= m, otherwise the Hall-violator half
   (everything alternately reachable from the unmatched tasks) is pinned
   above m and the rest below, the two halves sharing no useful edge. *)

let rec go g ~matchings ~mate_u ~tasks ~machines ~lo ~hi =
  if Array.length tasks > 0 then begin
    if Obs.is_enabled () then
      Obs.Metrics.observe h_sub_tasks (float_of_int (Array.length tasks));
    (* Renumber the sub-instance; [mloc] maps original machine -> local. *)
    let nloc1 = Array.length tasks and nloc2 = Array.length machines in
    let mloc = Hashtbl.create nloc2 in
    Array.iteri (fun i u -> Hashtbl.add mloc u i) machines;
    let adjacency =
      Array.map
        (fun v ->
          G.fold_neighbors g v ~init:[] ~f:(fun acc ~edge:_ u _w ->
              match Hashtbl.find_opt mloc u with
              | Some i -> (i, 1.0) :: acc
              | None -> acc)
          |> List.rev)
        tasks
    in
    let sub = G.of_adjacency ~n2:nloc2 adjacency in
    let solve_caps d =
      incr matchings;
      Obs.Metrics.incr c_matchings;
      Matching.solve ~engine:Matching.Hopcroft_karp ~capacities:(Array.make nloc2 d) sub
    in
    if hi <= lo + 1 then begin
      (* Base: a two-level instance.  A matching under capacity [hi] covers
         everything (the invariant promises a schedule within [lo, hi]); the
         defensive fallback keeps the result a valid semi-matching even on a
         loose interval, and the final elimination sweep restores
         optimality. *)
      let r = solve_caps hi in
      let r = if r.Matching.size = nloc1 then r else solve_caps nloc1 in
      Array.iteri (fun i v -> mate_u.(v) <- machines.(r.Matching.mate1.(i))) tasks
    end
    else begin
      let m = (lo + hi) / 2 in
      let r = solve_caps m in
      if r.Matching.size = nloc1 then
        (* Coverage at capacity m: the whole sub-instance fits below m. *)
        go g ~matchings ~mate_u ~tasks ~machines ~lo ~hi:m
      else begin
        Obs.Metrics.incr c_splits;
        (* Alternating reachability from the unmatched tasks: a task reaches
           all its machines, a machine reaches its current occupants.  The
           reached tasks have every edge inside the reached machines, which
           are all saturated, so they form the overloaded half. *)
        let occupants = Array.make nloc2 [] in
        Array.iteri
          (fun v u -> if u >= 0 then occupants.(u) <- v :: occupants.(u))
          r.Matching.mate1;
        let t_top = Array.make nloc1 false and m_top = Array.make nloc2 false in
        let queue = Queue.create () in
        for v = 0 to nloc1 - 1 do
          if r.Matching.mate1.(v) < 0 then begin
            t_top.(v) <- true;
            Queue.add v queue
          end
        done;
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          G.iter_neighbors sub v (fun u _w ->
              if not m_top.(u) then begin
                m_top.(u) <- true;
                List.iter
                  (fun v' ->
                    if not t_top.(v') then begin
                      t_top.(v') <- true;
                      Queue.add v' queue
                    end)
                  occupants.(u)
              end)
        done;
        let split marks items =
          let yes = ref [] and no = ref [] in
          for i = Array.length items - 1 downto 0 do
            if marks.(i) then yes := items.(i) :: !yes else no := items.(i) :: !no
          done;
          (Array.of_list !yes, Array.of_list !no)
        in
        let tasks_top, tasks_bot = split t_top tasks in
        let machines_top, machines_bot = split m_top machines in
        (* The overloaded half averages above m, the rest fits within m;
           both intervals lose at least one level (lo < m < hi). *)
        go g ~matchings ~mate_u ~tasks:tasks_top ~machines:machines_top ~lo:(max lo m) ~hi;
        go g ~matchings ~mate_u ~tasks:tasks_bot ~machines:machines_bot ~lo ~hi:(min hi m)
      end
    end
  end

(* ---- stitching: cost-reducing-path elimination ---------------------- *)

(* The recursion guarantees no useful edge crosses a split, but each half is
   only solved to its interval.  The stitch is the classical optimality
   loop: while some machine u and some machine w with load(w) <= load(u)-2
   are joined by an alternating path, flip the shortest such path (one task
   moves per hop; u loses one unit, w gains one, nothing in between
   changes).  When no path leaves the max level's reachable region, that
   region is settled and drops out.  Termination: every flip strictly
   decreases the sum of squared loads. *)

type stitch = {
  g : G.t;
  mate : int array; (* task -> chosen edge *)
  loads : int array;
  assigned : int Ds.Vec.t array;
  active : bool array;
  parent : int array; (* machine -> discovery edge of this BFS round *)
  stamp : int array;
  queue : int Queue.t;
  reached : int Ds.Vec.t;
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

(* Walk the parent chain from the terminal back to a source, moving each
   discovery task one hop forward. *)
let flip st w =
  Obs.Metrics.incr c_stitch_flips;
  st.loads.(w) <- st.loads.(w) + 1;
  let rec back u =
    let e = st.parent.(u) in
    if e >= 0 then begin
      let v = G.edge_task st.g e in
      let prev = st.mate.(v) in
      let u_prev = G.edge_endpoint st.g prev in
      remove_from st u_prev v;
      st.mate.(v) <- e;
      Ds.Vec.push st.assigned.(u) v;
      back u_prev
    end
    else st.loads.(u) <- st.loads.(u) - 1
  in
  back w

let eliminate g mate =
  let st =
    {
      g;
      mate;
      loads = Array.make g.G.n2 0;
      assigned = Array.init g.G.n2 (fun _ -> Ds.Vec.create ());
      active = Array.make g.G.n2 true;
      parent = Array.make g.G.n2 (-1);
      stamp = Array.make g.G.n2 (-1);
      queue = Queue.create ();
      reached = Ds.Vec.create ();
    }
  in
  Array.iteri
    (fun v e ->
      let u = G.edge_endpoint g e in
      st.loads.(u) <- st.loads.(u) + 1;
      Ds.Vec.push st.assigned.(u) v)
    mate;
  let round = ref 0 in
  let running = ref true in
  while !running do
    let lmax = ref 0 in
    for u = 0 to g.G.n2 - 1 do
      if st.active.(u) && st.loads.(u) > !lmax then lmax := st.loads.(u)
    done;
    if !lmax <= 1 then running := false
    else begin
      incr round;
      Queue.clear st.queue;
      Ds.Vec.clear st.reached;
      for u = 0 to g.G.n2 - 1 do
        if st.active.(u) && st.loads.(u) = !lmax then begin
          st.stamp.(u) <- !round;
          st.parent.(u) <- -1;
          Ds.Vec.push st.reached u;
          Queue.add u st.queue
        end
      done;
      let target = ref (-1) in
      while !target < 0 && not (Queue.is_empty st.queue) do
        let u = Queue.pop st.queue in
        let occ = st.assigned.(u) in
        let i = ref 0 in
        while !target < 0 && !i < Ds.Vec.length occ do
          let v = Ds.Vec.get occ !i in
          G.fold_neighbors g v ~init:() ~f:(fun () ~edge u' _w ->
              if !target < 0 && st.active.(u') && st.stamp.(u') <> !round then begin
                st.stamp.(u') <- !round;
                st.parent.(u') <- edge;
                Ds.Vec.push st.reached u';
                if st.loads.(u') <= !lmax - 2 then target := u'
                else Queue.add u' st.queue
              end);
          incr i
        done
      done;
      if !target >= 0 then flip st !target
      else
        (* The max level's region is two-level and closed: settled. *)
        Ds.Vec.iter (fun u -> st.active.(u) <- false) st.reached
    end
  done;
  st.loads

let solve g =
  check g;
  if g.G.n1 = 0 then
    {
      assignment = Bip_assignment.of_edges g [||];
      makespan = 0;
      loads = Array.make g.G.n2 0;
      total_flow_time = 0;
      matchings = 0;
    }
  else begin
    (* Upper level bound: least-loaded greedy (any feasible makespan do). *)
    let loads0 = Array.make g.G.n2 0 in
    for v = 0 to g.G.n1 - 1 do
      let best = ref (-1) in
      G.iter_neighbors g v (fun u _w ->
          if !best < 0 || loads0.(u) < loads0.(!best) then best := u);
      loads0.(!best) <- loads0.(!best) + 1
    done;
    let hi = Array.fold_left max 1 loads0 in
    let matchings = ref 0 in
    let mate_u = Array.make g.G.n1 (-1) in
    go g ~matchings ~mate_u
      ~tasks:(Array.init g.G.n1 Fun.id)
      ~machines:(Array.init g.G.n2 Fun.id)
      ~lo:0 ~hi;
    (* Machine choice -> first edge into that machine (deterministic). *)
    let mate =
      Array.init g.G.n1 (fun v ->
          let e = ref (-1) in
          G.fold_neighbors g v ~init:() ~f:(fun () ~edge u _w ->
              if !e < 0 && u = mate_u.(v) then e := edge);
          assert (!e >= 0);
          !e)
    in
    let loads = eliminate g mate in
    {
      assignment = Bip_assignment.of_edges g mate;
      makespan = Array.fold_left max 0 loads;
      loads;
      total_flow_time = Harvey.flow_time loads;
      matchings = !matchings;
    }
  end
