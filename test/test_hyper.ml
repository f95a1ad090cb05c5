module H = Hyper.Graph
module W = Hyper.Weights
module Gen = Hyper.Generate

let check = Alcotest.(check bool)

let toy () =
  H.create ~n1:2 ~n2:3
    ~hyperedges:[ (0, [| 0 |], 2.0); (0, [| 1; 2 |], 1.0); (1, [| 0; 1 |], 3.0) ]

let test_create_accessors () =
  let h = toy () in
  Alcotest.(check int) "hyperedges" 3 (H.num_hyperedges h);
  Alcotest.(check int) "pins" 5 (H.num_pins h);
  Alcotest.(check int) "deg T0" 2 (H.task_degree h 0);
  Alcotest.(check int) "deg T1" 1 (H.task_degree h 1);
  Alcotest.(check int) "max degree" 2 (H.max_task_degree h);
  Alcotest.(check int) "size h1" 2 (H.h_size h 1);
  Alcotest.(check (float 1e-9)) "weight h2" 3.0 (H.h_weight h 2);
  Alcotest.(check (array int)) "procs h1" [| 1; 2 |] (H.h_procs h 1);
  Alcotest.(check int) "owner of h0" 0 (H.h_task h 0);
  Alcotest.(check int) "owner of h2" 1 (H.h_task h 2);
  check "feasible" false (H.has_isolated_task h)

let test_create_regroups_interleaved () =
  (* Hyperedges given interleaved across tasks must be grouped per task with
     relative order preserved. *)
  let h =
    H.create ~n1:2 ~n2:2
      ~hyperedges:[ (1, [| 0 |], 1.0); (0, [| 1 |], 2.0); (1, [| 1 |], 3.0); (0, [| 0 |], 4.0) ]
  in
  let weights_of v =
    let acc = ref [] in
    H.iter_task_hyperedges h v (fun e -> acc := H.h_weight h e :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (float 1e-9))) "task 0 order" [ 2.0; 4.0 ] (weights_of 0);
  Alcotest.(check (list (float 1e-9))) "task 1 order" [ 1.0; 3.0 ] (weights_of 1)

let test_validation () =
  let raises msg f = Alcotest.check_raises "invalid" (Invalid_argument msg) f in
  raises "Hyper.Graph: task out of range" (fun () ->
      ignore (H.create ~n1:1 ~n2:1 ~hyperedges:[ (1, [| 0 |], 1.0) ]));
  raises "Hyper.Graph: empty processor set" (fun () ->
      ignore (H.create ~n1:1 ~n2:1 ~hyperedges:[ (0, [||], 1.0) ]));
  raises "Hyper.Graph: duplicate processor in hyperedge" (fun () ->
      ignore (H.create ~n1:1 ~n2:2 ~hyperedges:[ (0, [| 1; 1 |], 1.0) ]));
  raises "Hyper.Graph: weight must be positive" (fun () ->
      ignore (H.create ~n1:1 ~n2:1 ~hyperedges:[ (0, [| 0 |], -1.0) ]))

let test_isolated_task () =
  let h = H.create ~n1:2 ~n2:1 ~hyperedges:[ (0, [| 0 |], 1.0) ] in
  check "task 1 has no configuration" true (H.has_isolated_task h)

let test_of_bipartite () =
  let g = Bipartite.Graph.create ~n1:2 ~n2:2 ~edges:[ (0, 0, 1.5); (0, 1, 2.5); (1, 0, 3.0) ] in
  let h = H.of_bipartite g in
  Alcotest.(check int) "hyperedge per edge" 3 (H.num_hyperedges h);
  Alcotest.(check int) "all singletons" 3 (H.num_pins h);
  Alcotest.(check (array int)) "first config of T0" [| 0 |] (H.h_procs h 0);
  Alcotest.(check (float 1e-9)) "weights carried" 2.5 (H.h_weight h 1)

let test_min_max_h_size () =
  let h = toy () in
  Alcotest.(check (pair int int)) "sizes" (1, 2) (H.min_max_h_size h)

let test_fig2 () =
  let h = Gen.fig2 () in
  Alcotest.(check int) "tasks" 4 h.H.n1;
  Alcotest.(check int) "procs" 3 h.H.n2;
  Alcotest.(check int) "T3 single config" 1 (H.task_degree h 2);
  Alcotest.(check int) "T4 single config" 1 (H.task_degree h 3);
  Alcotest.(check (array int)) "T3 must use P3" [| 2 |] (H.h_procs h h.H.task_off.(2));
  (* T1 configurations: {P1} and {P2,P3}. *)
  Alcotest.(check (array int)) "T1 first config" [| 0 |] (H.h_procs h 0);
  Alcotest.(check (array int)) "T1 second config" [| 1; 2 |] (H.h_procs h 1)

(* ---------------------------------------------------------------- Builder *)

let fields h = (h.H.n1, h.H.n2, h.H.task_off, h.H.h_off, h.H.h_adj, h.H.w)

(* Capacities are hints: too small grows, too large trims, and the graph is
   the same as [create]'s either way, grouped or not. *)
let test_builder_capacity () =
  let rng = Randkit.Prng.create ~seed:4 in
  let grouped_prefix = List.init 20 (fun i -> (i / 4, [| i mod 3 |], float_of_int (i + 1))) in
  let scattered =
    List.init 100 (fun i ->
        (Randkit.Prng.int rng 10, [| Randkit.Prng.int rng 3; 3 + Randkit.Prng.int rng 3 |], float_of_int i +. 0.5))
  in
  List.iter
    (fun hyperedges ->
      let want = fields (H.create ~n1:10 ~n2:6 ~hyperedges) in
      let pins = List.fold_left (fun acc (_, p, _) -> acc + Array.length p) 0 hyperedges in
      List.iter
        (fun (nh, np) ->
          let b = H.builder ~n1:10 ~n2:6 ~hyperedges:nh ~pins:np in
          List.iter (fun (task, procs, weight) -> H.add b ~task ~procs ~weight) hyperedges;
          check (Printf.sprintf "hints %d/%d" nh np) true (fields (H.build b) = want))
        [ (0, 0); (1, 1); (List.length hyperedges, pins); (1000, 10_000) ])
    [ grouped_prefix; scattered; grouped_prefix @ scattered ]

let test_builder_first_error_wins () =
  let raises msg hyperedges =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (H.create ~n1:2 ~n2:50 ~hyperedges))
  in
  raises "Hyper.Graph: weight must be positive" [ (0, [| 0 |], 0.0); (5, [| 0 |], 1.0) ];
  raises "Hyper.Graph: task out of range" [ (5, [| 0 |], 1.0); (0, [| 0 |], 0.0) ];
  (* within a configuration, pins are checked in order, small or large *)
  let big k = Array.init k (fun i -> i) in
  let with_pin a i u = a.(i) <- u; a in
  raises "Hyper.Graph: duplicate processor in hyperedge" [ (0, with_pin (with_pin (big 40) 10 3) 20 99, 1.0) ];
  raises "Hyper.Graph: processor out of range" [ (0, with_pin (with_pin (big 40) 10 99) 20 3, 1.0) ];
  raises "Hyper.Graph: duplicate processor in hyperedge" [ (0, with_pin (with_pin (big 8) 4 3) 6 99, 1.0) ];
  raises "Hyper.Graph: processor out of range" [ (0, with_pin (with_pin (big 8) 4 99) 6 3, 1.0) ];
  let b = H.builder ~n1:1 ~n2:1 ~hyperedges:1 ~pins:1 in
  H.add b ~task:0 ~procs:[| 0 |] ~weight:1.0;
  ignore (H.build b);
  Alcotest.check_raises "spent builder" (Invalid_argument "Hyper.Graph: builder used after build")
    (fun () -> H.add_pin b 0)

let test_bipartite_round_trip () =
  let g =
    Bipartite.Graph.create ~n1:3 ~n2:2 ~edges:[ (0, 1, 1.5); (2, 0, 2.0); (0, 0, 3.0); (2, 1, 4.0) ]
  in
  let h = H.of_bipartite g in
  check "of_bipartite = create" true
    (fields h
    = fields
        (H.create ~n1:3 ~n2:2
           ~hyperedges:[ (0, [| 1 |], 1.5); (0, [| 0 |], 3.0); (2, [| 0 |], 2.0); (2, [| 1 |], 4.0) ]));
  (match H.to_bipartite h with
  | Some g' -> check "to_bipartite inverts" true (Bipartite.Graph.equal_structure g g')
  | None -> Alcotest.fail "singleton hypergraph not bipartite");
  check "a pair is not bipartite" true (H.to_bipartite (toy ()) = None);
  Alcotest.check_raises "of_csr validates"
    (Invalid_argument "Bipartite.Graph: V2 endpoint out of range") (fun () ->
      ignore (Bipartite.Graph.of_csr ~n1:1 ~n2:1 ~off:[| 0; 1 |] ~adj:[| 1 |] ~w:[| 1.0 |]));
  Alcotest.check_raises "of_csr offsets"
    (Invalid_argument "Bipartite.Graph.of_csr: malformed offsets") (fun () ->
      ignore (Bipartite.Graph.of_csr ~n1:2 ~n2:1 ~off:[| 0; 2; 1 |] ~adj:[| 0 |] ~w:[| 1.0 |]));
  Alcotest.check_raises "of_csr weights"
    (Invalid_argument "Bipartite.Graph: weight must be positive") (fun () ->
      ignore (Bipartite.Graph.of_csr ~n1:1 ~n2:1 ~off:[| 0; 2 |] ~adj:[| 0; 0 |] ~w:[| 1.0; Float.nan |]));
  Alcotest.check_raises "of_csr: any bad endpoint before any bad weight"
    (Invalid_argument "Bipartite.Graph: V2 endpoint out of range") (fun () ->
      ignore (Bipartite.Graph.of_csr ~n1:1 ~n2:1 ~off:[| 0; 2 |] ~adj:[| 0; 1 |] ~w:[| 0.0; 1.0 |]))

(* [to_bipartite] shares the CSR arrays and validates them with plain
   loops, so it allocates nothing per edge (a closure over the weights
   would box each one, 2 words). *)
let test_to_bipartite_allocation () =
  let rng = Randkit.Prng.create ~seed:3 in
  let h = H.of_bipartite (Bipartite.Fewg_manyg.generate rng ~n1:2000 ~n2:64 ~g:4 ~d:6) in
  let m = H.num_hyperedges h in
  check "over 10k edges" true (m > 10_000);
  let before = Gc.minor_words () in
  let g = H.to_bipartite h in
  let words = Gc.minor_words () -. before in
  check "singleton" true (Option.is_some g);
  check (Printf.sprintf "%.0f minor words for %d edges" words m) true (words /. float_of_int m < 0.01)

(* ---------------------------------------------------------------- Weights *)

let test_unit_weights () =
  let h = W.apply W.Unit (toy ()) in
  for e = 0 to H.num_hyperedges h - 1 do
    Alcotest.(check (float 1e-9)) "unit" 1.0 (H.h_weight h e)
  done

let test_related_weights_formula () =
  (* Sizes are 1 and 2: min*max = 2, so w = ceil(2/s): 2 for singletons,
     1 for pairs — more processors, smaller time. *)
  let h = W.apply W.Related (toy ()) in
  Alcotest.(check (float 1e-9)) "singleton" 2.0 (H.h_weight h 0);
  Alcotest.(check (float 1e-9)) "pair" 1.0 (H.h_weight h 1);
  Alcotest.(check (float 1e-9)) "pair" 1.0 (H.h_weight h 2)

let test_related_weights_antimonotone () =
  let rng = Randkit.Prng.create ~seed:3 in
  let h =
    Gen.generate rng ~family:Gen.Fewg_manyg ~n:100 ~p:32 ~dv:3 ~dh:5 ~g:4 ~weights:W.Related
  in
  for e = 1 to H.num_hyperedges h - 1 do
    if H.h_size h e > H.h_size h (e - 1) then
      check "bigger set, not bigger weight" true (H.h_weight h e <= H.h_weight h (e - 1))
  done

let test_random_weights () =
  let rng = Randkit.Prng.create ~seed:5 in
  let h = W.apply ~rng W.default_random (toy ()) in
  for e = 0 to H.num_hyperedges h - 1 do
    let w = H.h_weight h e in
    check "integer in [1,10]" true (w >= 1.0 && w <= 10.0 && Float.is_integer w)
  done

let test_random_weights_needs_rng () =
  Alcotest.check_raises "no rng" (Invalid_argument "Weights.apply: Random scheme needs ~rng")
    (fun () -> ignore (W.apply W.default_random (toy ())))

let test_weights_names () =
  Alcotest.(check string) "unit" "unit" (W.name W.Unit);
  Alcotest.(check string) "related" "related" (W.name W.Related);
  Alcotest.(check string) "random" "random[1,10]" (W.name W.default_random)

(* -------------------------------------------------------------- Generator *)

let test_generate_shapes () =
  let rng = Randkit.Prng.create ~seed:7 in
  let h = Gen.generate rng ~family:Gen.Fewg_manyg ~n:500 ~p:64 ~dv:5 ~dh:10 ~g:8 ~weights:W.Unit in
  Alcotest.(check int) "tasks" 500 h.H.n1;
  Alcotest.(check int) "procs" 64 h.H.n2;
  check "no isolated task" false (H.has_isolated_task h);
  (* |N| ≈ n·dv. *)
  let nh = H.num_hyperedges h in
  check "|N| near 2500" true (nh > 2200 && nh < 2800);
  for e = 0 to nh - 1 do
    check "hyperedge nonempty" true (H.h_size h e >= 1)
  done

let test_generate_hilo_family () =
  let rng = Randkit.Prng.create ~seed:9 in
  let h = Gen.generate rng ~family:Gen.Hilo ~n:200 ~p:64 ~dv:5 ~dh:10 ~g:8 ~weights:W.Unit in
  check "no isolated task" false (H.has_isolated_task h);
  let nh = H.num_hyperedges h in
  check "|N| near 1000" true (nh > 850 && nh < 1150);
  (* HiLo pins: up to 2(dh+1) per hyperedge. *)
  for e = 0 to nh - 1 do
    check "pin count bounded" true (H.h_size h e >= 1 && H.h_size h e <= 22)
  done

let test_generate_reproducible () =
  let mk () =
    let rng = Randkit.Prng.create ~seed:11 in
    Gen.generate rng ~family:Gen.Fewg_manyg ~n:100 ~p:32 ~dv:2 ~dh:3 ~g:4 ~weights:W.Related
  in
  let a = mk () and b = mk () in
  check "identical structure" true
    (a.H.task_off = b.H.task_off && a.H.h_off = b.H.h_off && a.H.h_adj = b.H.h_adj && a.H.w = b.H.w)

let test_generate_uniform () =
  let rng = Randkit.Prng.create ~seed:21 in
  let h = Gen.generate_uniform rng ~n:300 ~p:40 ~dv:3 ~dh:5 ~weights:W.Related in
  check "feasible" false (H.has_isolated_task h);
  let nh = H.num_hyperedges h in
  check "|N| near 900" true (nh > 750 && nh < 1050);
  (* Sizes are binomial with mean 5, clamped to [1, p]. *)
  for e = 0 to nh - 1 do
    check "size in range" true (H.h_size h e >= 1 && H.h_size h e <= 10)
  done;
  let mean = float_of_int (H.num_pins h) /. float_of_int nh in
  check "mean size near 5" true (abs_float (mean -. 5.0) < 0.5)

let test_generate_powerlaw () =
  let rng = Randkit.Prng.create ~seed:23 in
  let p = 40 in
  let h = Gen.generate_powerlaw rng ~n:300 ~p ~dv:3 ~dh:5 ~alpha:1.2 ~weights:W.Unit in
  check "feasible" false (H.has_isolated_task h);
  (* Skew: processor 0 must be far more popular than the last one. *)
  let pins = Array.make p 0 in
  for e = 0 to H.num_hyperedges h - 1 do
    H.iter_h_procs h e (fun u -> pins.(u) <- pins.(u) + 1)
  done;
  check "processor 0 hot" true (pins.(0) > 4 * (pins.(p - 1) + 1));
  (* Distinct pins within each hyperedge (rejection sampling works). *)
  for e = 0 to H.num_hyperedges h - 1 do
    let procs = H.h_procs h e in
    for i = 1 to Array.length procs - 1 do
      check "distinct sorted" true (procs.(i - 1) < procs.(i))
    done
  done

let test_generate_powerlaw_invalid_alpha () =
  let rng = Randkit.Prng.create ~seed:1 in
  Alcotest.check_raises "alpha" (Invalid_argument "Hyper.Generate: alpha must be positive")
    (fun () ->
      ignore (Gen.generate_powerlaw rng ~n:4 ~p:4 ~dv:1 ~dh:1 ~alpha:0.0 ~weights:W.Unit))

let test_generate_invalid () =
  let rng = Randkit.Prng.create ~seed:1 in
  Alcotest.check_raises "bad n" (Invalid_argument "Hyper.Generate: n and p must be positive")
    (fun () ->
      ignore (Gen.generate rng ~family:Gen.Hilo ~n:0 ~p:4 ~dv:1 ~dh:1 ~g:1 ~weights:W.Unit))

(* -------------------------------------------------------------- Stats *)

let test_stats () =
  let h = toy () in
  let s = Hyper.Stats.compute h in
  Alcotest.(check int) "tasks" 2 s.Hyper.Stats.num_tasks;
  Alcotest.(check int) "pins" 5 s.Hyper.Stats.num_pins;
  Alcotest.(check (list (pair int int))) "task degrees" [ (1, 1); (2, 1) ]
    s.Hyper.Stats.task_degree_hist;
  Alcotest.(check (list (pair int int))) "config sizes" [ (1, 1); (2, 2) ]
    s.Hyper.Stats.h_size_hist;
  Alcotest.(check (float 1e-9)) "mean size" (5.0 /. 3.0) s.Hyper.Stats.mean_h_size;
  Alcotest.(check (float 1e-9)) "wmin" 1.0 s.Hyper.Stats.weight_min;
  Alcotest.(check (float 1e-9)) "wmax" 3.0 s.Hyper.Stats.weight_max;
  let contains ~needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  check "render mentions pins" true (contains ~needle:"pins" (Hyper.Stats.render s));
  let dot = Hyper.Stats.to_dot h in
  check "dot has task nodes" true (contains ~needle:"t0" dot);
  check "dot has hyperedge points" true (contains ~needle:"h2" dot)

let test_stats_empty_rejected () =
  let h = H.create ~n1:0 ~n2:1 ~hyperedges:[] in
  Alcotest.check_raises "no hyperedges" (Invalid_argument "Hyper.Stats.compute: no hyperedges")
    (fun () -> ignore (Hyper.Stats.compute h))

let suite =
  [
    Alcotest.test_case "stats compute/render/dot" `Quick test_stats;
    Alcotest.test_case "stats rejects empty" `Quick test_stats_empty_rejected;
    Alcotest.test_case "create/accessors" `Quick test_create_accessors;
    Alcotest.test_case "create regroups interleaved input" `Quick test_create_regroups_interleaved;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "isolated task" `Quick test_isolated_task;
    Alcotest.test_case "of_bipartite embedding" `Quick test_of_bipartite;
    Alcotest.test_case "builder capacity hints" `Quick test_builder_capacity;
    Alcotest.test_case "builder: first error in input order" `Quick test_builder_first_error_wins;
    Alcotest.test_case "of/to_bipartite round trip" `Quick test_bipartite_round_trip;
    Alcotest.test_case "min/max hyperedge size" `Quick test_min_max_h_size;
    Alcotest.test_case "fig2 toy hypergraph" `Quick test_fig2;
    Alcotest.test_case "unit weights" `Quick test_unit_weights;
    Alcotest.test_case "related weights formula" `Quick test_related_weights_formula;
    Alcotest.test_case "related weights antimonotone" `Quick test_related_weights_antimonotone;
    Alcotest.test_case "random weights" `Quick test_random_weights;
    Alcotest.test_case "random weights need rng" `Quick test_random_weights_needs_rng;
    Alcotest.test_case "weight scheme names" `Quick test_weights_names;
    Alcotest.test_case "generator shapes (FewgManyg)" `Quick test_generate_shapes;
    Alcotest.test_case "generator shapes (HiLo)" `Quick test_generate_hilo_family;
    Alcotest.test_case "generator reproducible" `Quick test_generate_reproducible;
    Alcotest.test_case "generator invalid args" `Quick test_generate_invalid;
    Alcotest.test_case "uniform generator" `Quick test_generate_uniform;
    Alcotest.test_case "powerlaw generator" `Quick test_generate_powerlaw;
    Alcotest.test_case "powerlaw invalid alpha" `Quick test_generate_powerlaw_invalid_alpha;
    Alcotest.test_case "to_bipartite: no words per edge" `Quick test_to_bipartite_allocation;
  ]
