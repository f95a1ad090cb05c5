(* Differential proof of the direct exact engines: every engine in
   Exact_unit.all_exact_engines must report the same optimal makespan on the
   same bytes, the load-vector-optimal engines (harvey, gen-hk, dnc) must
   produce the *same* sorted load vector (it is unique across optimal
   semi-matchings), and that vector must be lexicographically no worse than
   what the makespan-only binary searches return.  Instance families: HiLo,
   FewgManyg, the paper's adversarial traps, and a Chung–Lu-ish skewed
   generator whose machine popularity follows a power law.  Small instances
   are additionally cross-checked against brute force. *)

module G = Bipartite.Graph
module E = Semimatch.Exact_unit
module Ba = Semimatch.Bip_assignment
module Prng = Randkit.Prng

let engines = E.all_exact_engines
let direct = [ E.Harvey_online; E.Gen_hk; E.Divide_conquer ]

let int_loads g a = Array.map int_of_float (Ba.loads g a)

let sorted_desc loads =
  let v = Array.copy loads in
  Array.sort (fun a b -> compare b a) v;
  v

(* a <= b in lexicographic order over equal-length descending load vectors. *)
let lex_le a b =
  let n = Array.length a in
  let rec go i = i >= n || a.(i) < b.(i) || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let render v = String.concat "," (List.map string_of_int (Array.to_list v))

(* The full differential on one instance; [label] identifies the family and
   index on failure. *)
let check_instance ?(brute = false) label g =
  let solutions = List.map (fun exact -> (exact, E.solve_with ~exact g)) engines in
  let reference =
    match solutions with (_, s) :: _ -> s.E.makespan | [] -> assert false
  in
  List.iter
    (fun (exact, s) ->
      if not (Ba.is_valid g s.E.assignment) then
        Alcotest.failf "%s: %s returned an invalid assignment" label (E.exact_engine_name exact);
      if s.E.makespan <> reference then
        Alcotest.failf "%s: %s found makespan %d, reference %d" label
          (E.exact_engine_name exact) s.E.makespan reference;
      let loads = int_loads g s.E.assignment in
      let m = Array.fold_left max 0 loads in
      if m <> s.E.makespan then
        Alcotest.failf "%s: %s reports makespan %d but its loads give %d" label
          (E.exact_engine_name exact) s.E.makespan m)
    solutions;
  (* The optimal sorted load vector is unique; every load-vector-optimal
     engine must produce exactly it, and it lex-dominates every engine. *)
  let vector_of exact = sorted_desc (int_loads g (List.assoc exact solutions).E.assignment) in
  let optimal = vector_of E.Gen_hk in
  List.iter
    (fun exact ->
      let v = vector_of exact in
      if v <> optimal then
        Alcotest.failf "%s: %s load vector [%s] differs from gen-hk's optimal [%s]" label
          (E.exact_engine_name exact) (render v) (render optimal))
    direct;
  List.iter
    (fun (exact, s) ->
      let v = sorted_desc (int_loads g s.E.assignment) in
      if not (lex_le optimal v) then
        Alcotest.failf "%s: gen-hk vector [%s] not lex-<= %s's [%s]" label (render optimal)
          (E.exact_engine_name exact) (render v))
    solutions;
  (* Flow-time side of the same coin, through each engine's own report. *)
  let hk = Semimatch.Gen_hk.solve g and dc = Semimatch.Divide_conquer.solve g in
  let hv = Semimatch.Harvey.solve g in
  if hk.Semimatch.Gen_hk.total_flow_time <> hv.Semimatch.Harvey.total_flow_time then
    Alcotest.failf "%s: gen-hk flow time %d vs harvey %d" label
      hk.Semimatch.Gen_hk.total_flow_time hv.Semimatch.Harvey.total_flow_time;
  if dc.Semimatch.Divide_conquer.total_flow_time <> hv.Semimatch.Harvey.total_flow_time then
    Alcotest.failf "%s: dnc flow time %d vs harvey %d" label
      dc.Semimatch.Divide_conquer.total_flow_time hv.Semimatch.Harvey.total_flow_time;
  if brute then begin
    let opt_bf, _ = Semimatch.Brute_force.singleproc g in
    if Float.abs (opt_bf -. float_of_int reference) > 1e-9 then
      Alcotest.failf "%s: brute force %.17g vs engines %d" label opt_bf reference
  end

(* --- instance families ---------------------------------------------- *)

let hilo_grid () =
  (* 64 deterministic HiLo instances across sizes, groups and d. *)
  List.concat_map
    (fun (n1, n2) ->
      List.concat_map
        (fun g ->
          List.filter_map
            (fun d ->
              if g <= min n1 n2 then
                Some (Printf.sprintf "hilo-%d-%d-%d-%d" n1 n2 g d, Bipartite.Hilo.generate ~n1 ~n2 ~g ~d)
              else None)
            [ 1; 2; 3; 5 ])
        [ 1; 2; 4; 8 ])
    [ (9, 4); (16, 8); (25, 6); (40, 10) ]

let fewg_instances rng n =
  List.init n (fun i ->
      let r = Prng.split rng in
      let n1 = 4 + Prng.int r 40 and n2 = 2 + Prng.int r 10 in
      let g = 1 + Prng.int r (min n1 n2) and d = 1 + Prng.int r 4 in
      (Printf.sprintf "fewg-%d" i, Bipartite.Fewg_manyg.generate r ~n1 ~n2 ~g ~d))

let adversarial_instances () =
  (Printf.sprintf "adversarial-fig1", Bipartite.Adversarial.fig1 ())
  :: (Printf.sprintf "adversarial-double", Bipartite.Adversarial.double_sorted_trap ())
  :: (Printf.sprintf "adversarial-expected", Bipartite.Adversarial.expected_greedy_trap ())
  :: List.map
       (fun k ->
         (Printf.sprintf "adversarial-sorted-k%d" k, Bipartite.Adversarial.sorted_greedy_trap ~k))
       [ 1; 2; 3; 4; 5; 6; 7 ]

(* Chung–Lu-ish skew: machine u is drawn with probability proportional to
   1/(u+1), so a few machines are wildly popular — the shape that makes
   level decompositions deep and binary-search deadlines high. *)
let chung_lu rng ~n1 ~n2 =
  let weight = Array.init n2 (fun u -> 1.0 /. float_of_int (u + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weight in
  let draw r =
    let x = Prng.float r total in
    let acc = ref 0.0 and pick = ref (n2 - 1) in
    (try
       Array.iteri
         (fun u w ->
           acc := !acc +. w;
           if x < !acc then begin
             pick := u;
             raise Exit
           end)
         weight
     with Exit -> ());
    !pick
  in
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    let d = 1 + Prng.int rng 3 in
    let chosen = Hashtbl.create d in
    (* Rejection capped at 4 tries per slot keeps generation deterministic
       and fast; a task always keeps its first draw. *)
    for _ = 1 to d do
      let rec attempt tries =
        let u = draw rng in
        if (not (Hashtbl.mem chosen u)) || tries = 0 then u else attempt (tries - 1)
      in
      let u = attempt 3 in
      if not (Hashtbl.mem chosen u) then begin
        Hashtbl.add chosen u ();
        edges := (v, u) :: !edges
      end
    done
  done;
  G.unit_weights ~n1 ~n2 ~edges:(List.rev !edges)

let chung_lu_instances rng n =
  List.init n (fun i ->
      let r = Prng.split rng in
      let n1 = 4 + Prng.int r 50 and n2 = 2 + Prng.int r 12 in
      (Printf.sprintf "chung-lu-%d" i, chung_lu r ~n1 ~n2))

let test_all_families_agree () =
  let rng = Prng.create ~seed:701 in
  let instances =
    hilo_grid ()
    @ fewg_instances rng 110
    @ adversarial_instances ()
    @ chung_lu_instances rng 140
  in
  (* The acceptance bar is >= 300 instances; fail loudly if a family edit
     ever shrinks the pool below it. *)
  Alcotest.(check bool) "at least 300 instances" true (List.length instances >= 300);
  List.iter (fun (label, g) -> check_instance label g) instances

let test_small_instances_vs_brute_force () =
  let rng = Prng.create ~seed:702 in
  for i = 1 to 80 do
    let r = Prng.split rng in
    let n1 = 1 + Prng.int r 6 and n2 = 1 + Prng.int r 4 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r (min 2 n2) in
      let procs = Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = G.unit_weights ~n1 ~n2 ~edges:!edges in
    check_instance ~brute:true (Printf.sprintf "small-%d" i) g
  done

let test_degenerate_shapes () =
  (* Empty task set, one task, all tasks on one machine, complete graph. *)
  let empty = G.unit_weights ~n1:0 ~n2:3 ~edges:[] in
  List.iter
    (fun exact ->
      let s = E.solve_with ~exact empty in
      Alcotest.(check int) "empty makespan" 0 s.E.makespan)
    engines;
  check_instance "one-task" (G.unit_weights ~n1:1 ~n2:1 ~edges:[ (0, 0) ]);
  check_instance "one-machine"
    (G.unit_weights ~n1:5 ~n2:1 ~edges:(List.init 5 (fun v -> (v, 0))));
  let complete =
    G.unit_weights ~n1:7 ~n2:3
      ~edges:(List.concat (List.init 7 (fun v -> List.init 3 (fun u -> (v, u)))))
  in
  check_instance "complete-7x3" complete

let test_engine_guarantees_reported () =
  List.iter
    (fun exact ->
      let expected =
        match exact with
        | E.Binary_search _ -> E.Makespan_optimal
        | E.Harvey_online | E.Gen_hk | E.Divide_conquer -> E.Load_vector_optimal
      in
      Alcotest.(check bool)
        (E.exact_engine_name exact ^ " guarantee")
        true
        (E.exact_engine_guarantee exact = expected);
      let g = G.unit_weights ~n1:3 ~n2:2 ~edges:[ (0, 0); (0, 1); (1, 0); (2, 1) ] in
      let s = E.solve_with ~exact g in
      Alcotest.(check bool)
        (E.exact_engine_name exact ^ " solution guarantee")
        true (s.E.guarantee = expected))
    engines

let test_portfolio_race_covers_all_engines () =
  (* Racing any engine subset returns the same makespan; jobs just changes
     who wins. *)
  let rng = Prng.create ~seed:703 in
  for _ = 1 to 20 do
    let r = Prng.split rng in
    let n1 = 2 + Prng.int r 20 and n2 = 1 + Prng.int r 6 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r (min 3 n2) in
      let procs = Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = G.unit_weights ~n1 ~n2 ~edges:!edges in
    let reference = (E.solve g).E.makespan in
    List.iter
      (fun jobs ->
        let s, _winner = Semimatch.Portfolio.solve_exact_unit ~jobs ~engines g in
        Alcotest.(check int) "raced makespan" reference s.E.makespan)
      [ 1; 4 ]
  done

(* --- the incremental search's Hall witness --------------------------- *)

(* Skewed unit instances: most edges go to the first third of the
   processors, so optima sit well above ceil(n/p) and the witness has
   room to jump. *)
let skewed_instance seed =
  let r = Prng.create ~seed in
  let n1 = 1 + Prng.int r 60 and n2 = 1 + Prng.int r 12 in
  let hot = (n2 + 2) / 3 in
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    let procs = ref [] in
    for _ = 0 to Prng.int r 3 do
      let u = if Prng.int r 5 < 4 then Prng.int r hot else Prng.int r n2 in
      if not (List.mem u !procs) then procs := u :: !procs
    done;
    List.iter (fun u -> edges := (v, u) :: !edges) !procs
  done;
  G.unit_weights ~n1 ~n2 ~edges:(List.rev !edges)

let hall_bound_prop =
  QCheck.Test.make ~name:"Hall witness bound lies in (d, opt] for every engine" ~count:500
    QCheck.(int_bound 1000000)
    (fun seed ->
      let g = skewed_instance seed in
      let opt = (E.solve_with ~exact:E.Gen_hk g).E.makespan in
      for d = 1 to opt - 1 do
        let bounds =
          List.map
            (fun engine ->
              let r = Matching.solve ~engine ~capacities:(Array.make g.G.n2 d) g in
              if r.Matching.size = g.G.n1 then
                QCheck.Test.fail_reportf "%s covers every task at d = %d < opt = %d"
                  (Matching.engine_name engine) d opt;
              E.hall_bound g ~d r.Matching.mate1)
            Matching.all_engines
        in
        List.iter
          (fun b ->
            if b <= d || b > opt then
              QCheck.Test.fail_reportf "bound %d at d = %d outside (d, %d]" b d opt;
            if b <> List.hd bounds then
              QCheck.Test.fail_reportf "bounds [%s] at d = %d differ across engines"
                (String.concat "," (List.map string_of_int bounds)) d)
          bounds
      done;
      true)

(* HLF-20-4 with d = 2: optimum 43 from ceil(n/p) = 5.  The first matching's
   witness proves 43 at once, where stepping by one took 39 matchings. *)
let hilo_far_optimum () =
  let spec =
    List.find
      (fun s -> s.Experiments.Instances.sp_name = "HLF-20-4")
      (Experiments.Instances.paper_grid_singleproc ~d:2 ())
  in
  Experiments.Instances.generate_singleproc ~seed:0 spec

let test_witness_jump_count () =
  let g = hilo_far_optimum () in
  Alcotest.(check int) "ceil(n/p)" 5 (Semimatch.Lower_bound.singleproc_unit g);
  List.iter
    (fun engine ->
      let s = E.solve ~engine g in
      let name = Matching.engine_name engine in
      Alcotest.(check int) (name ^ " optimum") 43 s.E.makespan;
      Alcotest.(check int) (name ^ " deadlines tried") 2 s.E.deadlines_tried;
      Alcotest.(check bool) (name ^ " valid") true (Ba.is_valid g s.E.assignment))
    Matching.all_engines

let test_sequential_race_runs_bs_hk () =
  let s, winner = Semimatch.Portfolio.solve_exact_unit ~jobs:1 (hilo_far_optimum ()) in
  Alcotest.(check string) "winner" "bs-hk" (E.exact_engine_name winner);
  Alcotest.(check int) "optimum" 43 s.E.makespan

let test_hall_bound_rejects_non_maximum () =
  (* Two tasks on one processor of capacity 2, nothing matched: the column
     has room, so the empty matching is not maximum. *)
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  Alcotest.check_raises "spare capacity"
    (Invalid_argument "Exact_unit.hall_bound: the matching is not maximum") (fun () ->
      ignore (E.hall_bound g ~d:2 [| -1; -1 |]));
  Alcotest.check_raises "complete matching"
    (Invalid_argument "Exact_unit.hall_bound: the matching covers every task") (fun () ->
      ignore (E.hall_bound g ~d:2 [| 0; 0 |]));
  Alcotest.(check int) "one exposed task over one full column" 2
    (E.hall_bound g ~d:1 [| 0; -1 |])

let suite =
  [
    Alcotest.test_case "all engines agree across >=300 instances (4 families)" `Quick
      test_all_families_agree;
    Alcotest.test_case "small instances cross-checked vs brute force" `Quick
      test_small_instances_vs_brute_force;
    Alcotest.test_case "degenerate shapes" `Quick test_degenerate_shapes;
    Alcotest.test_case "guarantee levels reported per engine" `Quick
      test_engine_guarantees_reported;
    Alcotest.test_case "portfolio race over all six engines" `Quick
      test_portfolio_race_covers_all_engines;
    QCheck_alcotest.to_alcotest hall_bound_prop;
    Alcotest.test_case "witness jump: HLF-20-4/d2 in 2 deadlines" `Quick
      test_witness_jump_count;
    Alcotest.test_case "sequential race runs bs-hk" `Quick test_sequential_race_runs_bs_hk;
    Alcotest.test_case "hall_bound rejects a non-maximum matching" `Quick
      test_hall_bound_rejects_non_maximum;
  ]
