(* Determinism under parallelism: fanning work out over domains must change
   wall-clock only, never results — rendered tables are compared byte for
   byte (after stripping the timing columns, which are genuinely
   nondeterministic).  Also the sharded-metrics contract: the merged value
   is exactly the sum of the per-domain shards. *)

module Pool = Parpool.Pool
module P = Semimatch.Portfolio

let test_sweep_identical_across_jobs () =
  let run jobs =
    Experiments.Sweep.run ~seeds:1 ~n:40 ~p:8 ~dvs:[ 2 ] ~dhs:[ 2; 3 ] ~gs:[ 4 ] ~jobs
      ~weights:Hyper.Weights.Related ()
  in
  let sequential = run 1 and parallel = run 4 in
  (* combo_result carries no timings, so whole rendered tables must match. *)
  Alcotest.(check string) "rendered sweep tables identical"
    (Experiments.Sweep.render sequential)
    (Experiments.Sweep.render parallel)

let test_runner_table_identical_across_jobs () =
  let spec =
    {
      Experiments.Instances.name = "DET-MP";
      family = Hyper.Generate.Hilo;
      n = 60;
      p = 12;
      dv = 2;
      dh = 3;
      g = 4;
    }
  in
  let strip rows =
    List.map
      (fun row ->
        List.map
          (fun r -> (r.Experiments.Runner.algo, r.Experiments.Runner.ratio))
          row.Experiments.Runner.results)
      rows
  in
  (* The full paper grid is too slow for a unit test; fan the same tiny spec
     out as four rows instead, exactly as [Runner.run ~jobs] does. *)
  let rows jobs =
    Pool.map_list ~jobs
      ~f:(fun s -> Experiments.Runner.run_row ~seeds:2 ~weights:Hyper.Weights.Unit s)
      [ spec; spec; spec; spec ]
  in
  Alcotest.(check bool) "ratio tables identical" true (strip (rows 1) = strip (rows 4))

let test_portfolio_identical_across_jobs () =
  let rng = Randkit.Prng.create ~seed:7 in
  for _ = 1 to 10 do
    let r = Randkit.Prng.split rng in
    let n1 = 10 + Randkit.Prng.int r 40 and n2 = 4 + Randkit.Prng.int r 8 in
    let hyperedges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Randkit.Prng.int r 3 in
      for _ = 1 to d do
        let k = 1 + Randkit.Prng.int r (min 3 n2) in
        let procs = Randkit.Prng.sample_without_replacement r ~k ~n:n2 in
        hyperedges := (v, procs, float_of_int (1 + Randkit.Prng.int r 3)) :: !hyperedges
      done
    done;
    let h = Hyper.Graph.create ~n1 ~n2 ~hyperedges:!hyperedges in
    let m jobs = (P.solve ~jobs h).P.best_makespan in
    let sequential = m 1 in
    Alcotest.(check (float 0.0)) "jobs=2" sequential (m 2);
    Alcotest.(check (float 0.0)) "jobs=4" sequential (m 4);
    (* Without the cutoff the whole outcome list is deterministic, winner
       included. *)
    let outcomes jobs =
      List.map
        (fun o -> (P.solver_name o.P.o_solver, o.P.o_makespan))
        (P.solve ~jobs ~cutoff:false h).P.outcomes
    in
    Alcotest.(check bool) "outcome table identical without cutoff" true
      (outcomes 1 = outcomes 4)
  done

let test_exact_engines_identical_across_runs () =
  (* The direct exact engines are pure functions of the instance bytes:
     repeated runs must return byte-identical edge choices, not merely
     equal makespans. *)
  let module E = Semimatch.Exact_unit in
  let rng = Randkit.Prng.create ~seed:23 in
  for _ = 1 to 8 do
    let r = Randkit.Prng.split rng in
    let n1 = 5 + Randkit.Prng.int r 40 and n2 = 2 + Randkit.Prng.int r 8 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Randkit.Prng.int r (min 4 n2) in
      let procs = Randkit.Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = Bipartite.Graph.unit_weights ~n1 ~n2 ~edges:!edges in
    List.iter
      (fun exact ->
        let name = E.exact_engine_name exact in
        let edges_of (s : E.solution) = s.E.assignment.Semimatch.Bip_assignment.edge in
        Alcotest.(check (array int))
          (name ^ " repeated run byte-identical")
          (edges_of (E.solve_with ~exact g))
          (edges_of (E.solve_with ~exact g)))
      [ E.Gen_hk; E.Divide_conquer ]
  done

let test_merged_counters_equal_shard_sum () =
  let c = Obs.Metrics.counter "test.determinism.sharded" in
  Obs.with_recording (fun () ->
      (* Increments from the main domain, a raw spawned domain, and pool
         workers; the merged value must equal both the expected total and
         the sum of the per-domain shards. *)
      for _ = 1 to 10 do
        Obs.Metrics.incr c
      done;
      let d = Domain.spawn (fun () -> for _ = 1 to 5 do Obs.Metrics.incr c done) in
      Domain.join d;
      let items = Array.init 200 Fun.id in
      ignore (Pool.map ~jobs:4 ~f:(fun i -> Obs.Metrics.incr c; i) items);
      let total = Obs.Metrics.value c in
      Alcotest.(check int) "merged value" (10 + 5 + 200) total;
      let shard_sum = List.fold_left ( + ) 0 (Obs.Metrics.shard_values c) in
      Alcotest.(check int) "sum of shards = merged value" total shard_sum;
      Alcotest.(check bool) "several domains recorded" true (Obs.Metrics.shard_count () >= 2))

let test_local_diff_is_exact_under_concurrency () =
  let c = Obs.Metrics.counter "test.determinism.localdiff" in
  Obs.with_recording (fun () ->
      (* A sibling domain hammers the counter while the main domain diffs
         its own shard; the diff must see exactly the local increments. *)
      let stop = Atomic.make false in
      let noise =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Obs.Metrics.incr c
            done)
      in
      let snap = Obs.Metrics.local_snapshot () in
      for _ = 1 to 1234 do
        Obs.Metrics.incr c
      done;
      let counters, _histos = Obs.Metrics.diff_since snap in
      Atomic.set stop true;
      Domain.join noise;
      Alcotest.(check (list (pair string int)))
        "local delta unaffected by the other domain"
        [ ("test.determinism.localdiff", 1234) ]
        (List.filter (fun (n, _) -> n = "test.determinism.localdiff") counters))

let suite =
  [
    Alcotest.test_case "sweep tables identical across jobs" `Quick
      test_sweep_identical_across_jobs;
    Alcotest.test_case "runner ratio tables identical across jobs" `Quick
      test_runner_table_identical_across_jobs;
    Alcotest.test_case "portfolio makespans identical across jobs" `Quick
      test_portfolio_identical_across_jobs;
    Alcotest.test_case "direct exact engines byte-identical on repeated runs" `Quick
      test_exact_engines_identical_across_runs;
    Alcotest.test_case "merged counters = sum of shards" `Quick
      test_merged_counters_equal_shard_sum;
    Alcotest.test_case "local shard diff exact under concurrency" `Quick
      test_local_diff_is_exact_under_concurrency;
  ]
