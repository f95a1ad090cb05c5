module H = Hyper.Graph
module A = Semimatch.Annealing
module Ha = Semimatch.Hyp_assignment

let check = Alcotest.(check bool)

let random_instance seed =
  let rng = Randkit.Prng.create ~seed in
  let n1 = 2 + Randkit.Prng.int rng 15 and n2 = 2 + Randkit.Prng.int rng 5 in
  let hyperedges = ref [] in
  for v = 0 to n1 - 1 do
    let configs = 1 + Randkit.Prng.int rng 3 in
    for _ = 1 to configs do
      let size = 1 + Randkit.Prng.int rng (min 3 n2) in
      let procs = Randkit.Prng.sample_without_replacement rng ~k:size ~n:n2 in
      hyperedges := (v, procs, float_of_int (1 + Randkit.Prng.int rng 4)) :: !hyperedges
    done
  done;
  H.create ~n1 ~n2 ~hyperedges:(List.rev !hyperedges)

let never_worse_prop =
  QCheck.Test.make ~name:"annealing never returns worse than its start" ~count:60
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance seed in
      let start = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Sorted_greedy_hyp h in
      let rng = Randkit.Prng.create ~seed in
      let params = { (A.default_params h) with A.iterations = 2000 } in
      let refined, reported = A.refine ~params rng h start in
      Ha.is_valid h refined
      && abs_float (Ha.makespan h refined -. reported) < 1e-9
      && reported <= Ha.makespan h start +. 1e-9)

let deterministic_prop =
  QCheck.Test.make ~name:"annealing deterministic for a fixed seed" ~count:30
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance seed in
      let run () =
        let rng = Randkit.Prng.create ~seed:777 in
        let params = { (A.default_params h) with A.iterations = 1000 } in
        snd (A.solve ~params rng h)
      in
      run () = run ())

let test_escapes_fig3_trap () =
  (* The k=3 trap: sorted-greedy is stuck at 3, annealing should find its
     way down (the planted optimum is 1 and moves are local). *)
  let g = Bipartite.Adversarial.sorted_greedy_trap ~k:3 in
  let h = H.of_bipartite g in
  let rng = Randkit.Prng.create ~seed:12 in
  let params = { A.iterations = 50_000; initial_temperature = 1.0; cooling = 0.9999 } in
  let _, makespan = A.solve ~params rng h in
  check "improves on the trapped 3" true (makespan <= 2.0)

let test_param_validation () =
  let h = random_instance 1 in
  let start = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Sorted_greedy_hyp h in
  let rng = Randkit.Prng.create ~seed:1 in
  Alcotest.check_raises "bad cooling" (Invalid_argument "Annealing: cooling must be in (0, 1]")
    (fun () ->
      ignore
        (A.refine ~params:{ A.iterations = 10; initial_temperature = 1.0; cooling = 1.5 } rng h start))

let test_zero_iterations_identity () =
  let h = random_instance 2 in
  let start = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Sorted_greedy_hyp h in
  let rng = Randkit.Prng.create ~seed:1 in
  let refined, m =
    A.refine ~params:{ A.iterations = 0; initial_temperature = 1.0; cooling = 0.99 } rng h start
  in
  Alcotest.(check (float 1e-9)) "same makespan" (Ha.makespan h start) m;
  check "same choices" true (refined.Ha.choice = start.Ha.choice)

(* Oracle: [refine] must follow the trajectory of the version that rescanned
   every load after each accepted move ([Annealing_reference]): the same
   choices, the same makespan bits and the same counter totals.  Weights are
   integers, tenths or arbitrary positive floats; on the last two, undoing a
   rejected move need not restore a load exactly.  Tasks have 1-4
   configurations over 1-4 processors, so degree-1 tasks and configurations
   sharing processors both occur; some instances have no task at all.
   Parameters include a frozen (0) temperature, no cooling (1.0), short and
   default budgets, and a [should_stop] that fires mid-run. *)
let oracle_case seed =
  let rng = Randkit.Prng.create ~seed in
  let pick n = Randkit.Prng.int rng n in
  let n1 = if pick 10 = 0 then 0 else 1 + pick 40 and n2 = 1 + pick 12 in
  let weight =
    match pick 3 with
    | 0 -> fun () -> float_of_int (1 + pick 9)
    | 1 -> fun () -> float_of_int (1 + pick 99) /. 10.0
    | _ -> fun () -> 0.01 +. Randkit.Prng.float rng 10.0
  in
  let hyperedges = ref [] in
  for v = 0 to n1 - 1 do
    for _ = 1 to 1 + pick 4 do
      let procs = Randkit.Prng.sample_without_replacement rng ~k:(1 + pick (min 4 n2)) ~n:n2 in
      hyperedges := (v, procs, weight ()) :: !hyperedges
    done
  done;
  let h = H.create ~n1 ~n2 ~hyperedges:(List.rev !hyperedges) in
  let start = Ha.of_choices h (Array.init n1 (fun v -> h.H.task_off.(v) + pick (H.task_degree h v))) in
  let defaults = A.default_params h in
  let params =
    {
      A.iterations = (if pick 4 = 0 then defaults.A.iterations else pick 3000);
      initial_temperature =
        (match pick 4 with
        | 0 -> 0.0
        | 1 -> Randkit.Prng.float rng 50.0
        | _ -> defaults.A.initial_temperature);
      cooling = (match pick 3 with 0 -> 1.0 | 1 -> 0.99 +. Randkit.Prng.float rng 0.01 | _ -> defaults.A.cooling);
    }
  in
  let stop_after = if pick 3 = 0 then Some (1 + pick 20) else None in
  (h, start, params, stop_after, Randkit.Prng.split rng)

let c_accepted = Obs.Metrics.counter "semimatch.annealing.accepted"
let c_rejected = Obs.Metrics.counter "semimatch.annealing.rejected"
let c_improved = Obs.Metrics.counter "semimatch.annealing.improved_best"

let oracle_prop =
  QCheck.Test.make ~name:"refine = reference, bit for bit" ~count:300
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h, start, params, stop_after, rng = oracle_case seed in
      let run refine =
        let should_stop =
          Option.map
            (fun k ->
              let polls = ref 0 in
              fun () ->
                incr polls;
                !polls >= k)
            stop_after
        in
        Obs.with_recording (fun () ->
            let a, m = refine ?should_stop (Randkit.Prng.copy rng) in
            ( a.Ha.choice,
              Int64.bits_of_float m,
              Obs.Metrics.(value c_accepted, value c_rejected, value c_improved) ))
      in
      let got = run (fun ?should_stop rng -> A.refine ~params ?should_stop rng h start) in
      let want = run (fun ?should_stop rng -> Annealing_reference.refine ~params ?should_stop rng h start) in
      let show (choice, m, (acc, rej, imp)) =
        Printf.sprintf "makespan %h accepted %d rejected %d improved %d choice [%s]" (Int64.float_of_bits m) acc
          rej imp
          (String.concat ";" (Array.to_list (Array.map string_of_int choice)))
      in
      got = want || QCheck.Test.fail_reportf "seed %d\n  refine:    %s\n  reference: %s" seed (show got) (show want))

(* Allocation pin: apart from its O(n1 + p) set-up and result, [refine]
   allocates nothing per iteration, so the words it allocates do not grow
   with the budget.  While the PRNG boxed its state words, this instance
   took 61k words at 1,000 iterations and 1.14M at 20,000; now 4.6k at
   both.  Telemetry is off, as by default: with it on, the epoch events
   allocate once per 2,048 iterations. *)
let test_allocation_flat_in_budget () =
  let spec =
    List.find
      (fun s -> s.Experiments.Instances.name = "MG-20-4-MP")
      (Experiments.Instances.paper_grid ())
  in
  let h =
    Experiments.Instances.generate_multiproc ~seed:1 ~weights:Hyper.Weights.Related
      (Experiments.Instances.scaled 8 spec)
  in
  let start = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Sorted_greedy_hyp h in
  let words iterations =
    let params = { (A.default_params h) with A.iterations } in
    let rng = Randkit.Prng.create ~seed:3 in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (A.refine ~params rng h start));
    Gc.minor_words () -. before
  in
  let was_enabled = Obs.is_enabled () in
  Obs.set_enabled false;
  let short = words 1_000 and long = words 20_000 in
  Obs.set_enabled was_enabled;
  if long <> short then Alcotest.failf "%.0f words at 1,000 iterations, %.0f at 20,000" short long

let suite =
  [
    QCheck_alcotest.to_alcotest never_worse_prop;
    QCheck_alcotest.to_alcotest deterministic_prop;
    Alcotest.test_case "escapes the fig3 trap" `Quick test_escapes_fig3_trap;
    Alcotest.test_case "parameter validation" `Quick test_param_validation;
    Alcotest.test_case "zero iterations = identity" `Quick test_zero_iterations_identity;
    QCheck_alcotest.to_alcotest oracle_prop;
    Alcotest.test_case "allocation flat in the budget" `Quick test_allocation_flat_in_budget;
  ]
