(* Fault tolerance: fault plans, incremental repair, degraded simulation,
   and deadline-bounded graceful degradation.  The differential tests here
   encode the subsystem's contract: repair is feasible on the surviving
   machine and never worse than a from-scratch re-solve, and the degraded
   simulator's event-level makespan equals the repaired load-vector maximum. *)

module H = Hyper.Graph
module F = Semimatch.Faults
module R = Semimatch.Repair
module D = Semimatch.Deadline
module A = Semimatch.Hyp_assignment
module G = Semimatch.Greedy_hyper

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let instance ?(n = 60) ?(p = 12) ?(dv = 4) ?(g = 3) ~seed () =
  let rng = Randkit.Prng.create ~seed in
  Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n ~p ~dv ~dh:3 ~g
    ~weights:Hyper.Weights.Related

let expect_failure ?(fragment = "") f =
  match f () with
  | exception Failure msg ->
      check ("Failure mentions " ^ fragment) true
        (let nl = String.length fragment and hl = String.length msg in
         let rec scan i = i + nl <= hl && (String.sub msg i nl = fragment || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "expected Failure"

(* --- fault-plan spec grammar --- *)

let test_spec_roundtrip () =
  let plan = F.of_string " crash:3, slow:1x2.5 ,stall:2@1+4,crash:5@2.5 " in
  Alcotest.(check string)
    "canonical form" "crash:3,slow:1x2.5,stall:2@1+4,crash:5@2.5" (F.to_string plan);
  check "roundtrip" true (F.of_string (F.to_string plan) = plan)

let test_spec_errors () =
  List.iter
    (fun spec -> expect_failure ~fragment:"Faults" (fun () -> F.of_string spec))
    [ ""; ","; "bogus"; "crash:"; "crash:x"; "slow:1"; "slow:ax2"; "stall:1@2"; "flood:3" ]

let test_degradation_validation () =
  expect_failure ~fragment:"out of range" (fun () ->
      F.degradation [ F.Crash { proc = 5; at = 0.0 } ] ~p:4);
  expect_failure ~fragment:"factor" (fun () ->
      F.degradation [ F.Slowdown { proc = 0; factor = 0.5 } ] ~p:4);
  expect_failure ~fragment:">= 0" (fun () ->
      F.degradation [ F.Stall { proc = 0; at = -1.0; dur = 2.0 } ] ~p:4);
  let d =
    F.degradation ~p:4
      [
        F.Slowdown { proc = 0; factor = 2.0 };
        F.Slowdown { proc = 0; factor = 3.0 };
        F.Stall { proc = 1; at = 1.0; dur = 2.0 };
        F.Stall { proc = 1; at = 2.0; dur = 3.0 };
        F.Crash { proc = 2; at = 5.0 };
        F.Crash { proc = 2; at = 2.0 };
      ]
  in
  checkf "slowdowns multiply" 6.0 d.F.speed.(0);
  check "stall windows merge" true (d.F.stalls.(1) = [| (1.0, 5.0) |]);
  check "earliest crash wins" true (d.F.dead.(2) && d.F.crash_at.(2) = 2.0)

let test_finish_time () =
  let d =
    F.degradation ~p:4
      [
        F.Slowdown { proc = 1; factor = 2.0 };
        F.Stall { proc = 2; at = 2.0; dur = 2.0 };
        F.Crash { proc = 3; at = 0.0 };
      ]
  in
  checkf "healthy proc: load itself" 3.5 (F.finish_time d 0 3.5);
  checkf "zero load is free" 0.0 (F.finish_time d 3 0.0);
  checkf "slowdown stretches" 7.0 (F.finish_time d 1 3.5);
  (* 3 units on proc 2: runs [0,2), pauses [2,4), finishes the last unit at 5. *)
  checkf "stall pauses work" 5.0 (F.finish_time d 2 3.0);
  check "dead proc never finishes" true (F.finish_time d 3 1.0 = infinity)

let test_random_crashes () =
  let rng = Randkit.Prng.create ~seed:7 in
  let plan = F.random_crashes rng ~p:16 ~kill_fraction:0.5 in
  Alcotest.(check int) "half the machine" 8 (List.length plan);
  check "all crashes at 0" true
    (List.for_all (function F.Crash { at; _ } -> at = 0.0 | _ -> false) plan);
  (* Reproducible per seed. *)
  let rng' = Randkit.Prng.create ~seed:7 in
  check "seeded determinism" true (F.random_crashes rng' ~p:16 ~kill_fraction:0.5 = plan);
  (* At least one survivor even at extreme fractions. *)
  let rng = Randkit.Prng.create ~seed:1 in
  let extreme = F.random_crashes rng ~p:4 ~kill_fraction:0.99 in
  check "a survivor remains" true (List.length extreme <= 3);
  check "bad fraction rejected" true
    (match F.random_crashes rng ~p:4 ~kill_fraction:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- incremental repair: the differential contract --- *)

let assert_feasible h d (choice : int array) =
  Array.iteri
    (fun v e ->
      if e >= 0 then
        H.iter_h_procs h e (fun u ->
            if d.F.dead.(u) then
              Alcotest.failf "task %d placed on dead processor %d (edge %d)" v u e))
    choice

let test_repair_differential () =
  List.iter
    (fun (seed, kill_fraction) ->
      let h = instance ~seed () in
      let a = G.run G.Expected_vector_greedy_hyp h in
      let rng = Randkit.Prng.create ~seed:(seed + 100) in
      let plan =
        F.random_crashes rng ~p:h.H.n2 ~kill_fraction
        @ [ F.Slowdown { proc = 0; factor = 1.5 }; F.Stall { proc = 1; at = 1.0; dur = 2.0 } ]
      in
      let d = F.degradation plan ~p:h.H.n2 in
      let cost = F.finish_time d in
      let r = R.repair ~cost ~dead:d.F.dead h a in
      (* (1) Feasible on the surviving machine: no chosen configuration
         touches a dead processor. *)
      assert_feasible h d r.R.choice;
      (* (2) Never worse than throwing the schedule away. *)
      let scratch = R.resolve ~cost ~dead:d.F.dead h in
      check
        (Printf.sprintf "seed %d: repaired %g <= re-solve %g" seed r.R.makespan scratch.R.makespan)
        true
        (r.R.makespan <= scratch.R.makespan +. 1e-9);
      check "LB bounds the repair" true (r.R.lower_bound <= r.R.makespan +. 1e-9);
      (* (3) The fault-injected simulator agrees: event-level makespan equals
         the repaired load-vector maximum (no parts are lost because repair
         avoids dead processors entirely). *)
      let dt = Simulator.run_degraded d h r.R.choice in
      check "no parts lost after repair" true (dt.Simulator.lost = []);
      checkf
        (Printf.sprintf "seed %d: simulated = repaired makespan" seed)
        r.R.makespan dt.Simulator.d_trace.Simulator.makespan;
      (* Moved ⊆ affected ∪ everything (re-solve may move any task);
         incremental repairs only move affected tasks. *)
      if not r.R.resolved_from_scratch then
        List.iter
          (fun v -> check "incremental moves only affected tasks" true (List.mem v r.R.affected))
          r.R.moved)
    [ (11, 0.25); (12, 0.25); (13, 0.5); (14, 0.125); (15, 0.5) ]

let test_repair_slowdown_only () =
  (* No dead processors: nothing is affected, but the cost model still
     reprices the schedule, and the simulator must agree exactly. *)
  let h = instance ~seed:21 () in
  let a = G.run G.Sorted_greedy_hyp h in
  let d =
    F.degradation ~p:h.H.n2
      [ F.Slowdown { proc = 2; factor = 3.0 }; F.Stall { proc = 3; at = 0.5; dur = 1.5 } ]
  in
  let r = R.repair ~cost:(F.finish_time d) ~dead:d.F.dead h a in
  check "no task affected by slowdowns" true (r.R.affected = [] && r.R.infeasible = []);
  let dt = Simulator.run_degraded d h r.R.choice in
  checkf "simulated = repaired under slow+stall" r.R.makespan
    dt.Simulator.d_trace.Simulator.makespan

let test_repair_infeasible_reported () =
  (* Task 0 only knows processor 0; kill it.  The repair must report the
     task, keep the rest of the schedule valid, and never raise. *)
  let h =
    H.create ~n1:2 ~n2:2 ~hyperedges:[ (0, [| 0 |], 2.0); (1, [| 0 |], 1.0); (1, [| 1 |], 1.0) ]
  in
  let a = A.of_choices h [| 0; 1 |] in
  let dead = [| true; false |] in
  let r = R.repair ~dead h a in
  check "task 0 infeasible" true (r.R.infeasible = [ 0 ]);
  check "task 0 unplaced" true (r.R.choice.(0) = -1);
  check "task 1 survives on proc 1" true (r.R.choice.(1) = 2);
  checkf "partial makespan still priced" 1.0 r.R.makespan;
  let d = F.degradation [ F.Crash { proc = 0; at = 0.0 } ] ~p:2 in
  let dt = Simulator.run_degraded d h r.R.choice in
  check "simulator reports it unscheduled" true (dt.Simulator.unscheduled = [ 0 ]);
  check "completion is infinite" true
    (dt.Simulator.d_trace.Simulator.task_completion.(0) = infinity)

let test_run_degraded_healthy_identity () =
  let h = instance ~seed:31 () in
  let a = G.run G.Sorted_greedy_hyp h in
  let t = Simulator.run ~policy:Simulator.Spt h a in
  let dt = Simulator.run_degraded ~policy:Simulator.Spt (F.healthy ~p:h.H.n2) h a.A.choice in
  check "no losses" true (dt.Simulator.lost = [] && dt.Simulator.unscheduled = []);
  check "identical trace under healthy plan" true (dt.Simulator.d_trace = t)

let test_run_degraded_loses_parts () =
  (* A late crash loses the parts that would finish after it; the victims
     are reported, not silently dropped. *)
  let h = instance ~seed:32 () in
  let a = G.run G.Sorted_greedy_hyp h in
  let t = Simulator.run h a in
  let victim = ref 0 in
  Array.iteri (fun u b -> if b > t.Simulator.proc_busy.(!victim) then victim := u)
    t.Simulator.proc_busy;
  let crash_at = t.Simulator.proc_busy.(!victim) /. 2.0 in
  let d = F.degradation [ F.Crash { proc = !victim; at = crash_at } ] ~p:h.H.n2 in
  let dt = Simulator.run_degraded d h a.A.choice in
  check "some task lost its part" true (dt.Simulator.lost <> []);
  List.iter
    (fun v ->
      check "lost tasks never complete" true
        (dt.Simulator.d_trace.Simulator.task_completion.(v) = infinity))
    dt.Simulator.lost

(* --- deadline-bounded graceful degradation --- *)

let test_deadline_generous_matches_portfolio () =
  (* dv = 4 over 60 tasks: the search space dwarfs the exact tier's bound,
     so an unhurried run must return the portfolio's bytes unchanged.  A
     budget past the clock's range (1e10 s) is as unhurried as any. *)
  let h = instance ~seed:41 () in
  let p = Semimatch.Portfolio.solve ~jobs:1 h in
  List.iter
    (fun budget_s ->
      let r = D.solve ~jobs:1 ~budget_s h in
      check "portfolio tier answered" true (r.D.tier = D.Tier_portfolio);
      check "not degraded" true (not r.D.degraded);
      checkf "same makespan" p.Semimatch.Portfolio.best_makespan r.D.makespan;
      check "byte-identical assignment" true
        (r.D.assignment.A.choice = p.Semimatch.Portfolio.assignment.A.choice))
    [ 60.0; 1e10 ]

let test_deadline_exhausted_budget_degrades () =
  let h = instance ~seed:41 () in
  let sgh = G.makespan G.Sorted_greedy_hyp h in
  let lb = Semimatch.Lower_bound.multiproc_refined h in
  check "instance is not greedy-trivial" true (sgh > lb);
  Obs.with_recording (fun () ->
      let r = D.solve ~jobs:1 ~budget_s:0.0 h in
      check "greedy tier is the floor" true (r.D.tier = D.Tier_greedy);
      checkf "the floor is SGH" sgh r.D.makespan;
      check "feasible schedule returned" true (A.is_valid h r.D.assignment);
      check "degradation flagged" true r.D.degraded;
      let names = List.map (fun e -> e.Obs.Events.e_name) (Obs.Events.records ()) in
      check "tier event logged" true (List.mem "deadline.tier" names);
      check "degradation event logged" true (List.mem "deadline.degraded" names))

let test_portfolio_expired_timeout () =
  (* A timeout that has expired, whether given so (zero, negative, nan) or
     passed before SGH finishes, runs SGH alone: the floor's schedule comes
     back, and each of the five skipped solvers is counted and logged. *)
  let module P = Semimatch.Portfolio in
  let h = instance ~seed:41 () in
  let sgh = G.run G.Sorted_greedy_hyp h in
  check "instance is not greedy-trivial" true
    (A.makespan h sgh > Semimatch.Lower_bound.multiproc_refined h);
  let skipped = Obs.Metrics.counter "semimatch.portfolio.solvers_skipped" in
  List.iter
    (fun jobs ->
      List.iter
        (fun timeout_s ->
          let what = Printf.sprintf "jobs %d, timeout %g" jobs timeout_s in
          Obs.with_recording (fun () ->
              let r = P.solve ~jobs ~timeout_s h in
              check (what ^ ": SGH's schedule") true (r.P.assignment.A.choice = sgh.A.choice);
              checkf (what ^ ": SGH's makespan") (A.makespan h sgh) r.P.best_makespan;
              check (what ^ ": SGH ran") true ((List.hd r.P.outcomes).P.o_makespan <> None);
              check (what ^ ": the others skipped") true
                (List.for_all (fun o -> o.P.o_makespan = None) (List.tl r.P.outcomes));
              Alcotest.(check int) (what ^ ": solvers_skipped") 5 (Obs.Metrics.value skipped);
              let cancelled =
                List.filter
                  (fun e -> e.Obs.Events.e_name = "portfolio.cancelled")
                  (Obs.Events.records ())
              in
              Alcotest.(check int) (what ^ ": cancelled events") 5 (List.length cancelled)))
        [ 0.0; -1.0; Float.nan; 1e-9 ])
    [ 1; 4 ]

let test_deadline_runs_portfolio_once () =
  (* The cascade's floor and lower bound are the portfolio's own: a
     generous budget runs each of the four greedies once, SGH included. *)
  let h = instance ~seed:41 () in
  let realized = Obs.Metrics.counter "semimatch.greedy.realized" in
  Obs.with_recording (fun () ->
      let r = D.solve ~jobs:1 ~budget_s:60.0 h in
      check "portfolio tier answered" true (r.D.tier = D.Tier_portfolio);
      Alcotest.(check int) "four greedy runs" (4 * h.H.n1) (Obs.Metrics.value realized))

let test_deadline_tight_budget_still_feasible () =
  (* The ISSUE's 1 ms case: whatever tier the clock reaches, the result is
     feasible and bounded below by the LB — never an exception. *)
  let h = instance ~n:800 ~p:48 ~seed:42 () in
  let r = D.solve ~jobs:1 ~budget_s:0.001 h in
  check "feasible under 1 ms" true (A.is_valid h r.D.assignment);
  check "LB respected" true (r.D.makespan >= r.D.lower_bound -. 1e-9);
  checkf "makespan is real" (A.makespan h r.D.assignment) r.D.makespan

let test_deadline_budget_at_the_floor () =
  (* Budgets that run out while the greedy floor finishes.  The test for
     budget left and the timeout handed to the portfolio must read the
     clock once: a budget positive at the test could otherwise reach the
     portfolio spent, and its cancel token refuses a non-positive timeout.
     The sweep spans half to one and a half times the floor's cost, so some
     budgets run out right between the two reads. *)
  let rng = Randkit.Prng.create ~seed:44 in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:200 ~p:32 ~dv:3 ~dh:4 ~g:4
      ~weights:Hyper.Weights.Unit
  in
  let floor_s () =
    let t0 = Unix.gettimeofday () in
    ignore (Semimatch.Lower_bound.multiproc_refined h);
    ignore (A.makespan h (G.run G.Sorted_greedy_hyp h));
    Unix.gettimeofday () -. t0
  in
  let costs = Array.init 51 (fun _ -> floor_s ()) in
  Array.sort compare costs;
  let cost = costs.(25) in
  let stop = Unix.gettimeofday () +. 2.0 in
  let calls = ref 0 in
  while Unix.gettimeofday () < stop do
    let budget_s = cost *. (0.5 +. (float_of_int (!calls mod 101) /. 100.0)) in
    (match D.solve ~jobs:1 ~budget_s h with
    | r ->
        if not (A.is_valid h r.D.assignment) then
          Alcotest.failf "infeasible schedule at a budget of %g s" budget_s
    | exception e ->
        Alcotest.failf "a budget of %g s raised %s after %d calls" budget_s (Printexc.to_string e) !calls);
    incr calls
  done

let test_deadline_exact_tier_settles_tiny () =
  (* 8 tasks with <= 3 configurations each: the space fits the exact tier's
     bound, so a generous budget must return the brute-force optimum. *)
  let h = instance ~n:8 ~p:4 ~dv:3 ~g:2 ~seed:43 () in
  let opt, _ = Semimatch.Brute_force.multiproc h in
  let r = D.solve ~jobs:1 ~budget_s:60.0 h in
  checkf "optimal makespan" opt r.D.makespan;
  check "exact tier credited when it had to run" true
    (r.D.makespan <= r.D.lower_bound +. 1e-9 || r.D.tier = D.Tier_exact)

(* SINGLEPROC-UNIT instances (every configuration a unit-weight
   singleton) reach the exact tier's deadline search whatever their size. *)
let singleproc_unit ~scale ~d ~seed name =
  let module I = Experiments.Instances in
  let spec = List.find (fun s -> s.I.sp_name = name) (I.paper_grid_singleproc ~d ()) in
  H.of_bipartite (I.generate_singleproc ~seed (I.scaled_singleproc scale spec))

let exact_engine_events () =
  List.filter_map
    (fun e ->
      if e.Obs.Events.e_name <> "deadline.exact_engine" then None
      else
        match List.assoc_opt "engine" e.Obs.Events.e_fields with
        | Some (Obs.Json.Str name) -> Some name
        | _ -> Some "")
    (Obs.Events.records ())

let test_deadline_exact_tier_singleproc_unit () =
  (* HLF-5-1/32 with d = 2: the portfolio stops at 6, above the optimum 5,
     so the deadline search's schedule is adopted. *)
  let h = singleproc_unit ~scale:32 ~d:2 ~seed:1 "HLF-5-1" in
  let g = Option.get (H.to_bipartite h) in
  let opt = float_of_int (Semimatch.Exact_unit.solve g).Semimatch.Exact_unit.makespan in
  let p = Semimatch.Portfolio.solve ~jobs:1 h in
  check "portfolio above the optimum" true (p.Semimatch.Portfolio.best_makespan > opt);
  Obs.with_recording (fun () ->
      let r = D.solve ~jobs:1 ~budget_s:60.0 h in
      check "exact tier answered" true (r.D.tier = D.Tier_exact);
      checkf "Exact_unit.solve's optimum" opt r.D.makespan;
      check "valid schedule" true (A.is_valid h r.D.assignment);
      checkf "makespan is real" (A.makespan h r.D.assignment) r.D.makespan;
      check "not degraded" false r.D.degraded;
      Alcotest.(check (list string)) "engine event" [ "bs-hk" ] (exact_engine_events ()))

let test_deadline_exact_tier_keeps_portfolio_ties () =
  (* FG-20-4/16 with d = 2: the portfolio reaches the optimum 6, above the
     lower bound 5, so the exact tier runs and ties: the portfolio's bytes
     stay. *)
  let h = singleproc_unit ~scale:16 ~d:2 ~seed:1 "FG-20-4" in
  let g = Option.get (H.to_bipartite h) in
  let opt = float_of_int (Semimatch.Exact_unit.solve g).Semimatch.Exact_unit.makespan in
  let p = Semimatch.Portfolio.solve ~jobs:1 h in
  checkf "portfolio at the optimum" opt p.Semimatch.Portfolio.best_makespan;
  check "optimum above the lower bound" true (opt > p.Semimatch.Portfolio.lower_bound);
  Obs.with_recording (fun () ->
      let r = D.solve ~jobs:1 ~budget_s:60.0 h in
      check "portfolio tier answered" true (r.D.tier = D.Tier_portfolio);
      check "byte-identical assignment" true
        (r.D.assignment.A.choice = p.Semimatch.Portfolio.assignment.A.choice);
      Alcotest.(check (list string)) "the exact tier ran" [ "bs-hk" ] (exact_engine_events ()))

let suite =
  [
    Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "degradation validation" `Quick test_degradation_validation;
    Alcotest.test_case "finish_time closed form" `Quick test_finish_time;
    Alcotest.test_case "random crashes" `Quick test_random_crashes;
    Alcotest.test_case "repair differential" `Quick test_repair_differential;
    Alcotest.test_case "repair under slowdown only" `Quick test_repair_slowdown_only;
    Alcotest.test_case "infeasible tasks reported" `Quick test_repair_infeasible_reported;
    Alcotest.test_case "degraded run, healthy plan = run" `Quick test_run_degraded_healthy_identity;
    Alcotest.test_case "late crash loses parts" `Quick test_run_degraded_loses_parts;
    Alcotest.test_case "generous deadline = portfolio bytes" `Quick
      test_deadline_generous_matches_portfolio;
    Alcotest.test_case "exhausted budget degrades to greedy" `Quick
      test_deadline_exhausted_budget_degrades;
    Alcotest.test_case "expired timeouts run the SGH floor alone" `Quick
      test_portfolio_expired_timeout;
    Alcotest.test_case "the cascade runs the portfolio once" `Quick
      test_deadline_runs_portfolio_once;
    Alcotest.test_case "tight budget stays feasible" `Quick test_deadline_tight_budget_still_feasible;
    Alcotest.test_case "budgets at the floor's cost stay feasible" `Quick
      test_deadline_budget_at_the_floor;
    Alcotest.test_case "exact tier settles tiny instances" `Quick
      test_deadline_exact_tier_settles_tiny;
    Alcotest.test_case "exact tier: bs-hk beats the portfolio" `Quick
      test_deadline_exact_tier_singleproc_unit;
    Alcotest.test_case "exact tier keeps portfolio ties" `Quick
      test_deadline_exact_tier_keeps_portfolio_ties;
  ]
