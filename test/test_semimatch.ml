module G = Bipartite.Graph
module H = Hyper.Graph
module Adv = Bipartite.Adversarial
module Ba = Semimatch.Bip_assignment
module Ha = Semimatch.Hyp_assignment
module Lb = Semimatch.Lower_bound
module Exact = Semimatch.Exact_unit
module Gb = Semimatch.Greedy_bipartite
module Gh = Semimatch.Greedy_hyper
module Ls = Semimatch.Local_search
module Red = Semimatch.Reduction
module Bf = Semimatch.Brute_force

let check = Alcotest.(check bool)

(* Shared random-instance helpers (small, for brute-force comparisons). *)

let random_bipartite rng ~n1 ~n2 =
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    let deg = 1 + Randkit.Prng.int rng (min 3 n2) in
    let procs = Randkit.Prng.sample_without_replacement rng ~k:deg ~n:n2 in
    Array.iter (fun u -> edges := (v, u) :: !edges) procs
  done;
  G.unit_weights ~n1 ~n2 ~edges:(List.rev !edges)

let random_hyper rng ~n1 ~n2 ~weights =
  let hyperedges = ref [] in
  for v = 0 to n1 - 1 do
    let configs = 1 + Randkit.Prng.int rng 3 in
    for _ = 1 to configs do
      let size = 1 + Randkit.Prng.int rng (min 3 n2) in
      let procs = Randkit.Prng.sample_without_replacement rng ~k:size ~n:n2 in
      let w =
        match weights with
        | `Unit -> 1.0
        | `Random -> float_of_int (1 + Randkit.Prng.int rng 5)
      in
      hyperedges := (v, procs, w) :: !hyperedges
    done
  done;
  H.create ~n1 ~n2 ~hyperedges:(List.rev !hyperedges)

(* ------------------------------------------------------------ Assignments *)

let test_bip_assignment_loads () =
  let g = G.create ~n1:3 ~n2:2 ~edges:[ (0, 0, 2.0); (1, 0, 3.0); (1, 1, 1.0); (2, 1, 4.0) ] in
  let a = Ba.of_edges g [| 0; 2; 3 |] in
  Alcotest.(check (array (float 1e-9))) "loads" [| 2.0; 5.0 |] (Ba.loads g a);
  Alcotest.(check (float 1e-9)) "makespan" 5.0 (Ba.makespan g a);
  Alcotest.(check int) "processor of T1" 1 (Ba.processor g a 1);
  check "valid" true (Ba.is_valid g a)

let test_bip_assignment_validation () =
  let g = G.unit_weights ~n1:2 ~n2:2 ~edges:[ (0, 0); (1, 1) ] in
  Alcotest.check_raises "edge of wrong task"
    (Invalid_argument "Bip_assignment: chosen edge does not belong to the task") (fun () ->
      ignore (Ba.of_edges g [| 1; 0 |]))

let test_bip_of_mates () =
  let g = G.unit_weights ~n1:2 ~n2:2 ~edges:[ (0, 0); (0, 1); (1, 0) ] in
  let a = Ba.of_mates g [| 1; 0 |] in
  Alcotest.(check int) "T0 -> P1" 1 (Ba.processor g a 0);
  Alcotest.(check int) "T1 -> P0" 0 (Ba.processor g a 1)

(* Both scan the CSR arrays in place and stop at the first hit: no weight
   is boxed per edge.  Each task's mate is its last neighbour, so
   [of_mates] scans every edge. *)
let test_csr_scans_allocation () =
  let g = Bipartite.Fewg_manyg.generate (Randkit.Prng.create ~seed:27) ~n1:2000 ~n2:64 ~g:4 ~d:6 in
  let m = G.num_edges g in
  check "over 10k edges" true (m > 10_000);
  let words f =
    let before = Gc.minor_words () in
    let x = f () in
    (x, Gc.minor_words () -. before)
  in
  let unit, unit_words = words (fun () -> G.is_unit_weighted g) in
  check "unit weights" true unit;
  check
    (Printf.sprintf "is_unit_weighted: %.0f minor words for %d edges" unit_words m)
    true
    (unit_words /. float_of_int m < 0.01);
  let mates = Array.init g.G.n1 (fun v -> g.G.adj.(g.G.off.(v + 1) - 1)) in
  let a, mates_words = words (fun () -> Ba.of_mates g mates) in
  check "of_mates: every task on its mate" true
    (Array.for_all Fun.id (Array.mapi (fun v u -> Ba.processor g a v = u) mates));
  check
    (Printf.sprintf "of_mates: %.0f minor words for %d edges" mates_words m)
    true
    (mates_words /. float_of_int m < 0.01)

let test_hyp_assignment_loads () =
  let h =
    H.create ~n1:2 ~n2:3
      ~hyperedges:[ (0, [| 0 |], 2.0); (0, [| 1; 2 |], 1.0); (1, [| 0; 1 |], 3.0) ]
  in
  let a = Ha.of_choices h [| 1; 2 |] in
  Alcotest.(check (array (float 1e-9))) "loads" [| 3.0; 4.0; 1.0 |] (Ha.loads h a);
  Alcotest.(check (float 1e-9)) "makespan" 4.0 (Ha.makespan h a);
  Alcotest.(check (array int)) "alloc T0" [| 1; 2 |] (Ha.alloc h a 0);
  Alcotest.(check (float 1e-9)) "total work" 8.0 (Ha.total_work h a);
  check "valid" true (Ha.is_valid h a)

let test_hyp_assignment_validation () =
  let h = H.create ~n1:2 ~n2:1 ~hyperedges:[ (0, [| 0 |], 1.0); (1, [| 0 |], 1.0) ] in
  Alcotest.check_raises "hyperedge of wrong task"
    (Invalid_argument "Hyp_assignment: chosen hyperedge does not belong to the task") (fun () ->
      ignore (Ha.of_choices h [| 1; 0 |]))

(* ------------------------------------------------------------ Lower bound *)

let test_lb_fig2 () =
  let h = Hyper.Generate.fig2 () in
  (* Cheapest work: T1 min(1, 2)=1, T2 min(2,2)=2, T3=1, T4=1 → 5/3. *)
  Alcotest.(check (float 1e-9)) "Eq.1" (5.0 /. 3.0) (Lb.multiproc h);
  Alcotest.(check (float 1e-9)) "refined >= Eq.1" (5.0 /. 3.0) (Lb.multiproc_refined h)

let lb_below_optimum_prop =
  QCheck.Test.make ~name:"LB <= optimal makespan (brute force)" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 5 and n2 = 1 + Randkit.Prng.int rng 4 in
      let h = random_hyper rng ~n1 ~n2 ~weights:`Random in
      let opt, _ = Bf.multiproc h in
      Lb.multiproc h <= opt +. 1e-9 && Lb.multiproc_refined h <= opt +. 1e-9)

let test_lb_singleproc_unit () =
  let g = random_bipartite (Randkit.Prng.create ~seed:1) ~n1:10 ~n2:3 in
  Alcotest.(check int) "ceil(10/3)" 4 (Lb.singleproc_unit g)

(* --------------------------------------------------------------- Exact *)

let exact_matches_brute_force_prop =
  QCheck.Test.make ~name:"exact SINGLEPROC-UNIT = brute force" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 7 and n2 = 1 + Randkit.Prng.int rng 4 in
      let g = random_bipartite rng ~n1 ~n2 in
      let opt, _ = Bf.singleproc g in
      let s = Exact.solve g in
      Ba.is_valid g s.Exact.assignment
      && abs_float (Ba.makespan g s.Exact.assignment -. float_of_int s.Exact.makespan) < 1e-9
      && float_of_int s.Exact.makespan = opt)

let incremental_equals_bisection_prop =
  QCheck.Test.make ~name:"incremental and bisection agree" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 40 and n2 = 1 + Randkit.Prng.int rng 6 in
      let g = random_bipartite rng ~n1 ~n2 in
      let a = Exact.solve ~strategy:Exact.Incremental g in
      let b = Exact.solve ~strategy:Exact.Bisection g in
      a.Exact.makespan = b.Exact.makespan)

let exact_engines_agree_prop =
  QCheck.Test.make ~name:"exact agrees across matching engines" ~count:60
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 30 and n2 = 1 + Randkit.Prng.int rng 6 in
      let g = random_bipartite rng ~n1 ~n2 in
      let spans =
        List.map (fun engine -> (Exact.solve ~engine g).Exact.makespan) Matching.all_engines
      in
      match spans with [ a; b; c ] -> a = b && b = c | _ -> false)

let test_exact_rejects_weighted () =
  let g = G.create ~n1:1 ~n2:1 ~edges:[ (0, 0, 2.0) ] in
  Alcotest.check_raises "weighted" (Invalid_argument "Exact_unit: weights must all be 1")
    (fun () -> ignore (Exact.solve g))

let test_exact_rejects_isolated () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0) ] in
  Alcotest.check_raises "isolated" (Invalid_argument "Exact_unit: task with no allowed processor")
    (fun () -> ignore (Exact.solve g))

let test_exact_empty () =
  let g = G.unit_weights ~n1:0 ~n2:2 ~edges:[] in
  Alcotest.(check int) "makespan 0" 0 (Exact.solve g).Exact.makespan

let test_feasible_decision () =
  let g = G.unit_weights ~n1:4 ~n2:2 ~edges:[ (0, 0); (1, 0); (2, 0); (3, 1) ] in
  check "deadline 2 infeasible" true (Exact.feasible g ~d:2 = None);
  check "deadline 3 feasible" true (Exact.feasible g ~d:3 <> None);
  Alcotest.(check int) "optimum 3" 3 (Exact.solve g).Exact.makespan

(* ------------------------------------------------------- Bipartite greedy *)

let test_fig1_behaviour () =
  let g = Adv.fig1 () in
  Alcotest.(check (float 1e-9)) "basic falls in the trap" 2.0 (Gb.makespan Gb.Basic g);
  Alcotest.(check (float 1e-9)) "sorted schedules T2 first" 1.0 (Gb.makespan Gb.Sorted g);
  Alcotest.(check (float 1e-9)) "double-sorted fine" 1.0 (Gb.makespan Gb.Double_sorted g);
  Alcotest.(check (float 1e-9)) "expected fine" 1.0 (Gb.makespan Gb.Expected g)

let test_fig3_behaviour () =
  (* Paper Fig. 3: basic- and sorted-greedy reach k while OPT = 1. *)
  List.iter
    (fun k ->
      let g = Adv.sorted_greedy_trap ~k in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "basic reaches k=%d" k)
        (float_of_int k) (Gb.makespan Gb.Basic g);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sorted reaches k=%d" k)
        (float_of_int k) (Gb.makespan Gb.Sorted g))
    [ 1; 2; 3; 4; 5 ]

let test_double_sorted_trap_behaviour () =
  (* TR Fig. 4: double-sorted still reaches 3, expected-greedy escapes. *)
  let g = Adv.double_sorted_trap () in
  Alcotest.(check (float 1e-9)) "double-sorted trapped" 3.0 (Gb.makespan Gb.Double_sorted g);
  Alcotest.(check (float 1e-9)) "expected-greedy escapes" 1.0 (Gb.makespan Gb.Expected g);
  Alcotest.(check int) "optimal is 1" 1 (Exact.solve g).Exact.makespan

let test_expected_trap_behaviour () =
  (* TR Fig. 5: even expected-greedy reaches 3. *)
  let g = Adv.expected_greedy_trap () in
  Alcotest.(check (float 1e-9)) "expected-greedy trapped" 3.0 (Gb.makespan Gb.Expected g);
  Alcotest.(check int) "optimal is 1" 1 (Exact.solve g).Exact.makespan

let greedy_bipartite_valid_prop =
  QCheck.Test.make ~name:"bipartite greedies: valid, >= LB, >= OPT" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 7 and n2 = 1 + Randkit.Prng.int rng 4 in
      let g = random_bipartite rng ~n1 ~n2 in
      let opt, _ = Bf.singleproc g in
      List.for_all
        (fun algorithm ->
          let a = Gb.run algorithm g in
          let m = Ba.makespan g a in
          Ba.is_valid g a && m >= opt -. 1e-9 && m >= Lb.singleproc g -. 1e-9)
        Gb.all)


let heaviest_first_equals_basic_on_unit_prop =
  QCheck.Test.make ~name:"heaviest-first = basic-greedy on unit weights" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 20 and n2 = 1 + Randkit.Prng.int rng 5 in
      let g = random_bipartite rng ~n1 ~n2 in
      (* All cheapest times tie, the sort is stable: identical decisions. *)
      (Gb.run Gb.Heaviest_first g).Ba.edge = (Gb.run Gb.Basic g).Ba.edge)

let test_heaviest_first_on_weighted () =
  (* One heavy task and two light ones on two machines: LPT places the heavy
     task first and balances; basic-greedy in input order does not. *)
  let g =
    G.create ~n1:3 ~n2:2
      ~edges:[ (0, 0, 1.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 1.0); (2, 0, 2.0); (2, 1, 2.0) ]
  in
  Alcotest.(check (float 1e-9)) "LPT balances" 2.0 (Gb.makespan Gb.Heaviest_first g);
  Alcotest.(check (float 1e-9)) "basic stacks" 3.0 (Gb.makespan Gb.Basic g)

let run_in_order_identity_prop =
  QCheck.Test.make ~name:"run_in_order with identity = basic-greedy" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 20 and n2 = 1 + Randkit.Prng.int rng 5 in
      let g = random_bipartite rng ~n1 ~n2 in
      let order = Array.init n1 Fun.id in
      (Gb.run_in_order g ~order).Ba.edge = (Gb.run Gb.Basic g).Ba.edge)

let test_run_in_order_validation () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Greedy_bipartite.run_in_order: not a permutation") (fun () ->
      ignore (Gb.run_in_order g ~order:[| 0; 0 |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Greedy_bipartite.run_in_order: length mismatch") (fun () ->
      ignore (Gb.run_in_order g ~order:[| 0 |]))

let test_empty_instances () =
  let g = G.unit_weights ~n1:0 ~n2:3 ~edges:[] in
  Alcotest.(check (float 1e-9)) "greedy on empty" 0.0 (Gb.makespan Gb.Sorted g);
  Alcotest.(check int) "harvey on empty" 0 (Semimatch.Harvey.solve g).Semimatch.Harvey.makespan;
  let h = H.create ~n1:0 ~n2:3 ~hyperedges:[] in
  Alcotest.(check (float 1e-9)) "hyper greedy on empty" 0.0
    (Gh.makespan Gh.Expected_vector_greedy_hyp h)

let test_greedy_bipartite_rejects_isolated () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0) ] in
  Alcotest.check_raises "isolated"
    (Invalid_argument "Greedy_bipartite: task with no allowed processor") (fun () ->
      ignore (Gb.run Gb.Basic g))

(* ------------------------------------------------------- Hypergraph greedy *)

let test_fig2_all_heuristics_optimal () =
  (* On the paper's Fig. 2 the optimum is 2 (both T3 and T4 are pinned to
     P3... actually T1/T2 can avoid P3): enumerate to be sure. *)
  let h = Hyper.Generate.fig2 () in
  let opt, _ = Bf.multiproc h in
  List.iter
    (fun algorithm ->
      let m = Gh.makespan algorithm h in
      check (Gh.name algorithm ^ " achieves optimum on fig2") true (m = opt))
    Gh.all

let greedy_hyper_valid_prop =
  QCheck.Test.make ~name:"hypergraph greedies: valid, >= LB, >= OPT" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 5 and n2 = 1 + Randkit.Prng.int rng 4 in
      let h = random_hyper rng ~n1 ~n2 ~weights:`Random in
      let opt, _ = Bf.multiproc h in
      let lb = Lb.multiproc h in
      List.for_all
        (fun algorithm ->
          let a = Gh.run algorithm h in
          let m = Ha.makespan h a in
          Ha.is_valid h a && m >= opt -. 1e-9 && m >= lb -. 1e-9)
        Gh.all)

let vector_variants_agree_prop =
  QCheck.Test.make ~name:"vector heuristics: naive = merged" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 8 and n2 = 1 + Randkit.Prng.int rng 6 in
      let h = random_hyper rng ~n1 ~n2 ~weights:`Random in
      List.for_all
        (fun algorithm ->
          let a = Gh.run ~vector_variant:Gh.Naive algorithm h in
          let b = Gh.run ~vector_variant:Gh.Merged algorithm h in
          a.Ha.choice = b.Ha.choice)
        [ Gh.Vector_greedy_hyp; Gh.Expected_vector_greedy_hyp ])

let hyper_greedy_matches_bipartite_on_singletons_prop =
  (* SGH on the bipartite embedding must behave exactly like sorted-greedy:
     the hypergraph algorithms generalize the bipartite ones. *)
  QCheck.Test.make ~name:"SGH specializes to sorted-greedy on singleton hyperedges" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 20 and n2 = 1 + Randkit.Prng.int rng 6 in
      let g = random_bipartite rng ~n1 ~n2 in
      let h = H.of_bipartite g in
      let bip = Gb.run Gb.Sorted g in
      let hyp = Gh.run Gh.Sorted_greedy_hyp h in
      bip.Ba.edge = hyp.Ha.choice)

let expected_hyper_specializes_prop =
  QCheck.Test.make ~name:"EGH specializes to expected-greedy on singleton hyperedges" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 20 and n2 = 1 + Randkit.Prng.int rng 6 in
      let g = random_bipartite rng ~n1 ~n2 in
      let h = H.of_bipartite g in
      let bip = Gb.run Gb.Expected g in
      let hyp = Gh.run Gh.Expected_greedy_hyp h in
      Ba.makespan g bip = Ha.makespan h hyp)

let test_greedy_hyper_rejects_isolated () =
  let h = H.create ~n1:2 ~n2:1 ~hyperedges:[ (0, [| 0 |], 1.0) ] in
  Alcotest.check_raises "isolated" (Invalid_argument "Greedy_hyper: task with no configuration")
    (fun () -> ignore (Gh.run Gh.Sorted_greedy_hyp h))

(* ------------------------------------------------------------ Local search *)

let local_search_never_worse_prop =
  QCheck.Test.make ~name:"local search never increases the makespan" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 8 and n2 = 1 + Randkit.Prng.int rng 5 in
      let h = random_hyper rng ~n1 ~n2 ~weights:`Random in
      let a = Gh.run Gh.Sorted_greedy_hyp h in
      let refined, _moves = Ls.refine h a in
      Ha.is_valid h refined && Ha.makespan h refined <= Ha.makespan h a +. 1e-9)

(* Test-local reference for [Ls.refine]: the same pass structure, but every
   move is ranked by re-sorting the whole hypothetical load vector. *)
let reference_refine ~max_passes h (a : Ha.t) =
  let module Lv = Ds.Load_vector in
  let choice = Array.copy a.Ha.choice in
  let lv = Lv.create h.H.n2 in
  Array.iter (fun e -> Lv.apply lv ~procs:(H.h_procs h e) ~w:(H.h_weight h e)) choice;
  let move e_old e_new =
    let old_procs = H.h_procs h e_old and new_procs = H.h_procs h e_new in
    let procs =
      Array.append old_procs (Array.of_list (List.filter (fun u -> not (Array.mem u old_procs)) (Array.to_list new_procs)))
    in
    let amounts =
      Array.map
        (fun u ->
          (if Array.mem u old_procs then 0.0 -. H.h_weight h e_old else 0.0)
          +. if Array.mem u new_procs then H.h_weight h e_new else 0.0)
        procs
    in
    { Lv.procs; amounts; len = Array.length procs }
  in
  let moves = ref 0 in
  let rec loop passes =
    if passes > 0 then begin
      let improved = ref false in
      for v = 0 to h.H.n1 - 1 do
        let e_old = choice.(v) in
        let best = ref e_old and best_vec = ref (Lv.sorted_desc lv) in
        H.iter_task_hyperedges h v (fun e_new ->
            if e_new <> e_old then begin
              let vec = Lv.hypothetical_sorted lv (move e_old e_new) in
              if compare vec !best_vec < 0 then begin
                best := e_new;
                best_vec := vec
              end
            end);
        if !best <> e_old then begin
          Lv.apply_delta lv (move e_old !best);
          choice.(v) <- !best;
          incr moves;
          improved := true
        end
      done;
      if !improved then loop (passes - 1)
    end
  in
  loop max_passes;
  (choice, !moves)

let local_search_matches_reference_prop =
  QCheck.Test.make ~name:"local search = re-sorting reference" ~count:200
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 40 and n2 = 1 + Randkit.Prng.int rng 12 in
      (* Non-integer weights that tie and round, up to four configurations
         of up to five processors. *)
      let weights = [| 0.1; 0.2; 0.3; 0.25; 1.0 /. 3.0; 1.0; 2.5 |] in
      let hyperedges =
        List.concat
          (List.init n1 (fun v ->
               List.init
                 (1 + Randkit.Prng.int rng 4)
                 (fun _ ->
                   let k = 1 + Randkit.Prng.int rng (min 5 n2) in
                   (v, Randkit.Prng.sample_without_replacement rng ~k ~n:n2, weights.(Randkit.Prng.int rng 7)))))
      in
      let h = H.create ~n1 ~n2 ~hyperedges in
      let start =
        Ha.of_choices h (Array.init n1 (fun v -> h.H.task_off.(v) + Randkit.Prng.int rng (H.task_degree h v)))
      in
      let max_passes = [| 1; 2; 50 |].(Randkit.Prng.int rng 3) in
      let refined, moves = Ls.refine ~max_passes h start in
      (refined.Ha.choice, moves) = reference_refine ~max_passes h start)

let test_local_search_improves_fig3 () =
  (* One-task moves cannot always reach the optimum (swapping two tasks on a
     loaded processor never improves the vector), but they provably get the
     k = 4 trap from makespan 4 down to at most 2: any processor at load >= 3
     hosts a task whose alternative is strictly lighter. *)
  let g = Adv.sorted_greedy_trap ~k:4 in
  let trapped = Gb.run Gb.Sorted g in
  Alcotest.(check (float 1e-9)) "trapped at 4" 4.0 (Ba.makespan g trapped);
  let refined, moves = Ls.refine_bipartite g trapped in
  check "made moves" true (moves > 0);
  check "escapes below 3" true (Ba.makespan g refined <= 2.0)

let test_local_search_wakes_settled_tasks () =
  (* Task 0 sits on P1 (load 3), and its move to P0 (load 2) only ties, so
     it settles in pass 1.  Task 1 then leaves P0 for P3, which frees P0: in
     pass 2 task 0 must be evaluated again, although only a processor of
     task 1's old configuration changed, and it moves. *)
  let h =
    H.create ~n1:4 ~n2:4
      ~hyperedges:
        [
          (0, [| 1 |], 1.0);
          (0, [| 0 |], 1.0);
          (1, [| 0 |], 1.0);
          (1, [| 3 |], 1.0);
          (2, [| 1 |], 2.0);
          (3, [| 0 |], 1.0);
        ]
  in
  let start = Ha.of_choices h [| 0; 2; 4; 5 |] in
  let refined, moves = Ls.refine h start in
  Alcotest.(check (array int)) "both tasks moved" [| 1; 3; 4; 5 |] refined.Ha.choice;
  Alcotest.(check int) "two moves" 2 moves;
  check "the reference agrees" true ((refined.Ha.choice, moves) = reference_refine ~max_passes:50 h start)

(* --------------------------------------------------------------- Portfolio *)

(* The portfolio hands each refinement the schedule its greedy slot already
   produced.  Every outcome must still equal the standalone call it stands
   for, at one domain and at two, and a greedy winner's schedule must be
   that greedy's: a refinement that mutated its shared start would show
   there. *)
let portfolio_matches_standalone_prop =
  let module P = Semimatch.Portfolio in
  QCheck.Test.make ~name:"portfolio outcomes = standalone solvers" ~count:60
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 30 and n2 = 1 + Randkit.Prng.int rng 10 in
      let weights = [| 0.1; 0.2; 0.25; 1.0 /. 3.0; 0.5; 1.0; 2.0; 3.0 |] in
      let unit = Randkit.Prng.bool rng in
      let hyperedges =
        List.concat
          (List.init n1 (fun v ->
               List.init
                 (1 + Randkit.Prng.int rng 4)
                 (fun _ ->
                   let k = 1 + Randkit.Prng.int rng (min 4 n2) in
                   ( v,
                     Randkit.Prng.sample_without_replacement rng ~k ~n:n2,
                     if unit then 1.0 else weights.(Randkit.Prng.int rng 8) ))))
      in
      let h = H.create ~n1 ~n2 ~hyperedges in
      let standalone = function
        | P.Greedy a -> Ha.makespan h (Gh.run a h)
        | P.Refined a -> Ha.makespan h (fst (Ls.refine h (Gh.run a h)))
        | P.Annealed seed -> snd (Semimatch.Annealing.solve (Randkit.Prng.create ~seed) h)
      in
      List.for_all
        (fun jobs ->
          let r = P.solve ~jobs ~cutoff:false h in
          List.for_all (fun o -> o.P.o_makespan = Some (standalone o.P.o_solver)) r.P.outcomes
          (* Annealing tracks its makespan incrementally, which can drift
             from the recomputed one by a rounding error on non-integer
             weights. *)
          && Float.abs (Ha.makespan h r.P.assignment -. r.P.best_makespan)
             <= 1e-9 *. Float.max 1.0 r.P.best_makespan
          &&
          match r.P.winner with
          | P.Greedy a -> r.P.assignment.Ha.choice = (Gh.run a h).Ha.choice
          | P.Refined _ | P.Annealed _ -> true)
        [ 1; 2 ])

(* On non-integer weights a solver's tracked sums can round away from its
   schedule's loads; the makespan the portfolio reports must still be the
   one its schedule has, whichever solver wins. *)
let portfolio_reports_its_schedule_prop =
  let module P = Semimatch.Portfolio in
  QCheck.Test.make ~name:"portfolio makespan = its schedule's, real weights" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 5 + Randkit.Prng.int rng 25 and n2 = 1 + Randkit.Prng.int rng 10 in
      let hyperedges =
        List.concat
          (List.init n1 (fun v ->
               List.init
                 (1 + Randkit.Prng.int rng 4)
                 (fun _ ->
                   let k = 1 + Randkit.Prng.int rng (min 4 n2) in
                   ( v,
                     Randkit.Prng.sample_without_replacement rng ~k ~n:n2,
                     0.1 +. Randkit.Prng.float rng 3.0 ))))
      in
      let h = H.create ~n1 ~n2 ~hyperedges in
      let r = P.solve ~jobs:1 h in
      let real = Ha.makespan h r.P.assignment in
      r.P.best_makespan = real
      || QCheck.Test.fail_reportf "%s reported %h, its schedule has %h" (P.solver_name r.P.winner)
           r.P.best_makespan real)

(* --------------------------------------------------------------- Reduction *)

let yes_instance = { Red.q = 2; triples = [ (0, 1, 2); (3, 4, 5); (0, 1, 3) ] }
let no_instance = { Red.q = 2; triples = [ (0, 1, 2); (0, 3, 4); (1, 3, 5) ] }

let test_reduction_shapes () =
  let h = Red.to_multiproc yes_instance in
  Alcotest.(check int) "q tasks" 2 h.H.n1;
  Alcotest.(check int) "3q processors" 6 h.H.n2;
  Alcotest.(check int) "every task offered every triple" 3 (H.task_degree h 0);
  Alcotest.(check int) "hyperedges = q|C|" 6 (H.num_hyperedges h)

let test_reduction_yes () =
  check "yes-instance has cover" true (Red.has_exact_cover yes_instance);
  let h = Red.to_multiproc yes_instance in
  let opt, witness = Bf.multiproc h in
  Alcotest.(check (float 1e-9)) "makespan 1 iff cover" 1.0 opt;
  match Red.cover_of_schedule yes_instance h witness with
  | None -> Alcotest.fail "expected a cover"
  | Some cover ->
      Alcotest.(check int) "q triples" 2 (List.length cover);
      let elements = List.concat_map (fun (a, b, c) -> [ a; b; c ]) cover in
      Alcotest.(check (list int)) "exact cover" [ 0; 1; 2; 3; 4; 5 ] (List.sort compare elements)

let test_reduction_no () =
  check "no-instance lacks cover" false (Red.has_exact_cover no_instance);
  let h = Red.to_multiproc no_instance in
  let opt, witness = Bf.multiproc h in
  check "makespan > 1" true (opt > 1.0);
  check "no cover extractable" true (Red.cover_of_schedule no_instance h witness = None)

let test_reduction_related_weights () =
  (* Paper, end of Theorem 1: "the problem with related weights is also
     NP-complete, since all hyperedges have the same degree in the proof".
     Concretely: applying the Related scheme to a reduced instance yields
     constant weights (ceil(3·3/3) = 3), so a cover exists iff the optimum
     is exactly 3 — the reduction survives the weight scheme. *)
  let h = Hyper.Weights.apply Hyper.Weights.Related (Red.to_multiproc yes_instance) in
  for e = 0 to H.num_hyperedges h - 1 do
    Alcotest.(check (float 1e-9)) "constant weight 3" 3.0 (H.h_weight h e)
  done;
  let opt, _ = Bf.multiproc h in
  Alcotest.(check (float 1e-9)) "cover <-> makespan 3" 3.0 opt;
  let h_no = Hyper.Weights.apply Hyper.Weights.Related (Red.to_multiproc no_instance) in
  let opt_no, _ = Bf.multiproc h_no in
  check "no cover -> makespan > 3" true (opt_no > 3.0)

let reduction_equivalence_prop =
  QCheck.Test.make ~name:"X3C cover exists iff reduced optimum is 1" ~count:60
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let q = 1 + Randkit.Prng.int rng 2 in
      let n = 3 * q in
      let num_triples = 1 + Randkit.Prng.int rng 5 in
      let triples =
        List.init num_triples (fun _ ->
            let s = Randkit.Prng.sample_without_replacement rng ~k:3 ~n in
            (s.(0), s.(1), s.(2)))
      in
      let inst = { Red.q; triples } in
      let h = Red.to_multiproc inst in
      let opt, _ = Bf.multiproc h in
      Red.has_exact_cover inst = (opt = 1.0))

(* -------------------------------------------------------------- Brute force *)

let test_brute_force_guard () =
  let h =
    H.create ~n1:30 ~n2:2
      ~hyperedges:
        (List.concat_map
           (fun v -> [ (v, [| 0 |], 1.0); (v, [| 1 |], 1.0) ])
           (List.init 30 Fun.id))
  in
  Alcotest.check_raises "guard" (Invalid_argument "Brute_force: search space exceeds the limit")
    (fun () -> ignore (Bf.multiproc ~limit:1000 h))

let test_brute_force_simple () =
  let h =
    H.create ~n1:2 ~n2:2
      ~hyperedges:[ (0, [| 0 |], 1.0); (0, [| 1 |], 1.0); (1, [| 0 |], 1.0); (1, [| 1 |], 1.0) ]
  in
  let opt, a = Bf.multiproc h in
  Alcotest.(check (float 1e-9)) "spread out" 1.0 opt;
  check "valid" true (Ha.is_valid h a)

let suite =
  [
    Alcotest.test_case "bip assignment loads" `Quick test_bip_assignment_loads;
    Alcotest.test_case "bip assignment validation" `Quick test_bip_assignment_validation;
    Alcotest.test_case "bip assignment of_mates" `Quick test_bip_of_mates;
    Alcotest.test_case "is_unit_weighted, of_mates: no words per edge" `Quick test_csr_scans_allocation;
    Alcotest.test_case "hyp assignment loads" `Quick test_hyp_assignment_loads;
    Alcotest.test_case "hyp assignment validation" `Quick test_hyp_assignment_validation;
    Alcotest.test_case "lower bound on fig2" `Quick test_lb_fig2;
    QCheck_alcotest.to_alcotest lb_below_optimum_prop;
    Alcotest.test_case "singleproc-unit trivial LB" `Quick test_lb_singleproc_unit;
    QCheck_alcotest.to_alcotest exact_matches_brute_force_prop;
    QCheck_alcotest.to_alcotest incremental_equals_bisection_prop;
    QCheck_alcotest.to_alcotest exact_engines_agree_prop;
    Alcotest.test_case "exact rejects weighted" `Quick test_exact_rejects_weighted;
    Alcotest.test_case "exact rejects isolated" `Quick test_exact_rejects_isolated;
    Alcotest.test_case "exact on empty instance" `Quick test_exact_empty;
    Alcotest.test_case "feasibility decision" `Quick test_feasible_decision;
    Alcotest.test_case "paper fig1 behaviour" `Quick test_fig1_behaviour;
    Alcotest.test_case "paper fig3 behaviour" `Quick test_fig3_behaviour;
    Alcotest.test_case "TR fig4 behaviour" `Quick test_double_sorted_trap_behaviour;
    Alcotest.test_case "TR fig5 behaviour" `Quick test_expected_trap_behaviour;
    QCheck_alcotest.to_alcotest greedy_bipartite_valid_prop;
    Alcotest.test_case "bipartite greedy rejects isolated" `Quick test_greedy_bipartite_rejects_isolated;
    QCheck_alcotest.to_alcotest heaviest_first_equals_basic_on_unit_prop;
    Alcotest.test_case "heaviest-first on weighted toy" `Quick test_heaviest_first_on_weighted;
    QCheck_alcotest.to_alcotest run_in_order_identity_prop;
    Alcotest.test_case "run_in_order validation" `Quick test_run_in_order_validation;
    Alcotest.test_case "empty instances" `Quick test_empty_instances;
    Alcotest.test_case "fig2: heuristics reach optimum" `Quick test_fig2_all_heuristics_optimal;
    QCheck_alcotest.to_alcotest greedy_hyper_valid_prop;
    QCheck_alcotest.to_alcotest vector_variants_agree_prop;
    QCheck_alcotest.to_alcotest hyper_greedy_matches_bipartite_on_singletons_prop;
    QCheck_alcotest.to_alcotest expected_hyper_specializes_prop;
    Alcotest.test_case "hypergraph greedy rejects isolated" `Quick test_greedy_hyper_rejects_isolated;
    QCheck_alcotest.to_alcotest local_search_never_worse_prop;
    QCheck_alcotest.to_alcotest local_search_matches_reference_prop;
    Alcotest.test_case "local search improves fig3" `Quick test_local_search_improves_fig3;
    Alcotest.test_case "local search wakes settled tasks" `Quick test_local_search_wakes_settled_tasks;
    QCheck_alcotest.to_alcotest portfolio_matches_standalone_prop;
    QCheck_alcotest.to_alcotest portfolio_reports_its_schedule_prop;
    Alcotest.test_case "X3C reduction shapes" `Quick test_reduction_shapes;
    Alcotest.test_case "X3C yes-instance" `Quick test_reduction_yes;
    Alcotest.test_case "X3C no-instance" `Quick test_reduction_no;
    Alcotest.test_case "X3C reduction under related weights" `Quick test_reduction_related_weights;
    QCheck_alcotest.to_alcotest reduction_equivalence_prop;
    Alcotest.test_case "brute force guard" `Quick test_brute_force_guard;
    Alcotest.test_case "brute force simple" `Quick test_brute_force_simple;
  ]
