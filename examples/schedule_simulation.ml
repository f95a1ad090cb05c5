(* Executing a schedule: from semi-matching to timeline.

     dune exec examples/schedule_simulation.exe

   A semi-matching only decides *where* work goes; the concurrent-job-shop
   semantics (paper Sec. II) lets each processor order its parts freely.
   This example computes a schedule for a small render-farm workload, then
   runs it part by part under different per-processor ordering
   policies: the makespan is invariant (it equals the maximum load — the
   quantity the heuristics minimized), while task completion times are not.
   An ASCII Gantt chart shows the final timeline. *)

module Gh = Semimatch.Greedy_hyper

let () =
  let rng = Randkit.Prng.create ~seed:11 in
  let n = 18 and p = 5 in
  (* Small random MULTIPROC workload: 1-3 configurations per task. *)
  let hyperedges = ref [] in
  for v = 0 to n - 1 do
    let configs = 1 + Randkit.Prng.int rng 3 in
    for _ = 1 to configs do
      let size = 1 + Randkit.Prng.int rng 2 in
      let procs = Randkit.Prng.sample_without_replacement rng ~k:size ~n:p in
      let w = float_of_int (1 + Randkit.Prng.int rng 6) in
      hyperedges := (v, procs, w) :: !hyperedges
    done
  done;
  let h = Hyper.Graph.create ~n1:n ~n2:p ~hyperedges:(List.rev !hyperedges) in
  let a = Gh.run Gh.Expected_vector_greedy_hyp h in
  let a, _ = Semimatch.Local_search.refine h a in
  Printf.printf "%d tasks on %d processors; EVG+LS makespan %g (LB %.2f)\n\n" n p
    (Semimatch.Hyp_assignment.makespan h a)
    (Semimatch.Lower_bound.multiproc h);
  Printf.printf "%-12s %10s %16s\n" "policy" "makespan" "avg completion";
  List.iter
    (fun policy ->
      let t = Simulator.run ~policy h a in
      Printf.printf "%-12s %10g %16.2f\n" (Simulator.policy_name policy) t.Simulator.makespan
        (Simulator.average_completion t))
    [ Simulator.Fifo; Simulator.Spt; Simulator.Lpt; Simulator.Random_order 3 ];
  let t = Simulator.run ~policy:Simulator.Spt h a in
  Printf.printf "\nGantt chart (SPT ordering; digits are task ids mod 16):\n\n%s"
    (Simulator.gantt ~width:64 ~proc_names:(Printf.sprintf "P%d") t)
