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

let run_solver ~should_stop h = function
  | Greedy a ->
      let asg = Greedy_hyper.run a h in
      (asg, Hyp_assignment.makespan h asg)
  | Refined a ->
      let start = Greedy_hyper.run a h in
      let asg, _moves = Local_search.refine h start in
      (asg, Hyp_assignment.makespan h asg)
  | Annealed seed ->
      let rng = Randkit.Prng.create ~seed in
      Annealing.solve ~should_stop rng h

let solve ?(jobs = 1) ?(cutoff = true) ?timeout_s h =
  let solvers = Array.of_list default_solvers in
  let n = Array.length solvers in
  (* The refined LB is sound (no schedule beats it), so an incumbent at the
     LB proves optimality and later solvers cannot improve the value — the
     only condition under which the cutoff skips work.  This is what keeps
     the returned makespan identical across job counts. *)
  let lb = Lower_bound.multiproc_refined h in
  let token = match timeout_s with Some s -> Cancel.create ~timeout_s:s () | None -> Cancel.never in
  let best = Atomic.make infinity in
  let results = Array.make n None in
  let times = Array.make n 0.0 in
  let optimal_found () = cutoff && Atomic.get best <= lb in
  let task i () =
    let name = solver_name solvers.(i) in
    if optimal_found () || Cancel.is_cancelled token then begin
      Obs.Metrics.incr c_skipped;
      (* Why the slot never ran: the LB cutoff proved optimality, or the
         caller's timeout/cancellation fired first. *)
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
      let (asg, m), dt = Obs.Span.time_s (fun () -> run_solver ~should_stop h solvers.(i)) in
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
  Pool.run ~cancel:token ~jobs (Array.init n task);
  (* A timeout that fires before anything completed would otherwise leave no
     result at all; fall back to the first solver, uninterrupted. *)
  if Array.for_all Option.is_none results then begin
    let (asg, m), dt =
      Obs.Span.time_s (fun () -> run_solver ~should_stop:(fun () -> false) h solvers.(0))
    in
    results.(0) <- Some (m, asg);
    times.(0) <- dt
  end;
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
