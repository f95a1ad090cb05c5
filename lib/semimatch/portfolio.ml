module Pool = Parpool.Pool
module Cancel = Parpool.Cancel

(* Probe points: how many solver slots ran vs were cut off, and how often the
   cutoff fired at all (meaning some solver hit the lower bound early). *)
let c_ran = Obs.Metrics.counter "semimatch.portfolio.solvers_ran"
let c_skipped = Obs.Metrics.counter "semimatch.portfolio.solvers_skipped"
let h_solver_s = Obs.Metrics.histogram "semimatch.portfolio.solver_s"

type solver =
  | Greedy of Greedy_hyper.algorithm
  | Refined of Greedy_hyper.algorithm
  | Annealed of int

let solver_name = function
  | Greedy a -> Greedy_hyper.short_name a
  | Refined a -> Greedy_hyper.short_name a ^ "+ls"
  | Annealed seed -> Printf.sprintf "anneal@%d" seed

let default_solvers =
  List.map (fun a -> Greedy a) Greedy_hyper.all
  @ [ Refined Greedy_hyper.Expected_vector_greedy_hyp; Annealed 1 ]

type outcome = { o_solver : solver; o_makespan : float option; o_time_s : float }

type result = {
  best_makespan : float;
  assignment : Hyp_assignment.t;
  winner : solver;
  lower_bound : float;
  outcomes : outcome list;
}

(* Lock-free incumbent: lower the shared best makespan, never raise it.
   The CAS loop retries only when another domain moved the value, and since
   each retry observes a strictly smaller incumbent it terminates.  Returns
   whether [v] became the new incumbent (the event log wants to know). *)
let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur then
    if Atomic.compare_and_set a cur v then true else atomic_min a v
  else false

(* [prepare] fetches a refinement's start — EVG+ls refines EVG's schedule,
   an annealer, like [Annealing.solve], SGH's — and returns the solver's own
   work, which is what gets timed. *)
let prepare ~should_stop ~start h = function
  | Greedy a ->
      fun () ->
        let asg = Greedy_hyper.run a h in
        (asg, Hyp_assignment.makespan h asg)
  | Refined a ->
      let s = start a in
      fun () ->
        let asg, _moves = Local_search.refine h s in
        (asg, Hyp_assignment.makespan h asg)
  | Annealed seed ->
      let s = start Greedy_hyper.Sorted_greedy_hyp in
      fun () -> Annealing.refine ~should_stop (Randkit.Prng.create ~seed) h s

let solve ?(jobs = 1) ?(cutoff = true) ?timeout_s h =
  let solvers = Array.of_list default_solvers in
  let n = Array.length solvers in
  (* The refined LB is sound (no schedule beats it), so an incumbent at the
     LB proves optimality and later solvers cannot improve the value — the
     only condition under which the cutoff skips work.  This is what keeps
     the returned makespan identical across job counts. *)
  let lb = Lower_bound.multiproc_refined h in
  let token = Cancel.create ?timeout_s () in
  let best = Atomic.make infinity in
  let results = Array.make n None in
  let times = Array.make n 0.0 in
  let optimal_found () = cutoff && Atomic.get best <= lb in
  (* Each greedy slot publishes its schedule here, and a refinement starts
     from the published one.  Domains never wait for each other: a
     refinement that finds its greedy's slot still empty runs that greedy
     itself.  At [jobs = 1] the slots run in list order, so every greedy
     runs once.  The starts are never mutated: both refinements copy. *)
  let published = List.map (fun a -> (a, Atomic.make None)) Greedy_hyper.all in
  let start a =
    match Atomic.get (List.assoc a published) with
    | Some asg -> asg
    | None -> Greedy_hyper.run a h
  in
  (* Slot 0, SGH, always runs: it is the floor every budgeted solve hands
     back, so a timeout that fires before anything completed still leaves a
     result. *)
  let task i () =
    let name = solver_name solvers.(i) in
    if i > 0 && (optimal_found () || Cancel.is_cancelled token) then begin
      Obs.Metrics.incr c_skipped;
      (* Why the slot never ran: the LB cutoff proved optimality, or the
         timeout fired first. *)
      if Obs.is_enabled () then
        if optimal_found () then
          Obs.Events.emit "portfolio.cutoff"
            [ Obs.Events.str "solver" name; Obs.Events.num "lower_bound" lb ]
        else
          Obs.Events.emit ~level:Obs.Events.Warn "portfolio.cancelled"
            [ Obs.Events.str "solver" name ]
    end
    else begin
      Obs.Metrics.incr c_ran;
      let should_stop () = Cancel.is_cancelled token || optimal_found () in
      let (asg, m), dt = Obs.Span.time_s (prepare ~should_stop ~start h solvers.(i)) in
      (match solvers.(i) with
      | Greedy a -> Atomic.set (List.assoc a published) (Some asg)
      | Refined _ | Annealed _ -> ());
      Obs.Metrics.observe h_solver_s dt;
      let improved = atomic_min best m in
      if Obs.is_enabled () then begin
        if improved then
          Obs.Events.emit "portfolio.incumbent"
            [ Obs.Events.str "solver" name; Obs.Events.num "makespan" m ];
        Obs.Events.emit "portfolio.solver.done"
          [
            Obs.Events.str "solver" name;
            Obs.Events.num "makespan" m;
            Obs.Events.num "time_s" dt;
          ]
      end;
      results.(i) <- Some (m, asg);
      times.(i) <- dt
    end
  in
  Pool.run ~jobs (Array.init n task);
  let best_makespan =
    Array.fold_left
      (fun acc -> function Some (m, _) -> Float.min acc m | None -> acc)
      infinity results
  in
  let winner_idx = ref 0 in
  (try
     for i = 0 to n - 1 do
       match results.(i) with
       | Some (m, _) when m = best_makespan ->
           winner_idx := i;
           raise Exit
       | _ -> ()
     done
   with Exit -> ());
  let assignment = match results.(!winner_idx) with Some (_, a) -> a | None -> assert false in
  let outcomes =
    List.init n (fun i ->
        {
          o_solver = solvers.(i);
          o_makespan = Option.map fst results.(i);
          o_time_s = times.(i);
        })
  in
  { best_makespan; assignment; winner = solvers.(!winner_idx); lower_bound = lb; outcomes }

let solve_exact_unit ?jobs:_ g = (Exact_unit.solve g, Exact_unit.default_engine)
