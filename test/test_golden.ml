(* Golden regression values, pinned from a verified build.

   Instance generation and the heuristics are fully deterministic in the
   seed, so any change to these numbers means the reproduction changed
   behaviour: a PRNG tweak, a generator edit, a different tie-break in a
   heuristic.  Such changes may be fine — but they must be noticed, because
   EXPERIMENTS.md's paper-vs-measured tables were recorded under exactly
   these semantics.  If a deliberate change lands, re-pin the constants and
   regenerate EXPERIMENTS.md. *)

module I = Experiments.Instances
module Gh = Semimatch.Greedy_hyper

let find name = List.find (fun s -> s.I.name = name) (I.paper_grid ())

let check_instance ~name ~weights ~nh ~pins ~lb ~makespans () =
  let h = I.generate_multiproc ~seed:0 ~weights (find name) in
  Alcotest.(check int) (name ^ " |N|") nh (Hyper.Graph.num_hyperedges h);
  Alcotest.(check int) (name ^ " pins") pins (Hyper.Graph.num_pins h);
  Alcotest.(check (float 1e-4)) (name ^ " LB") lb (Semimatch.Lower_bound.multiproc h);
  List.iter2
    (fun algo expected ->
      Alcotest.(check (float 1e-9))
        (name ^ " " ^ Gh.short_name algo)
        expected (Gh.makespan algo h))
    Gh.all makespans

let test_fg51_unit () =
  check_instance ~name:"FG-5-1-MP" ~weights:Hyper.Weights.Unit ~nh:6447 ~pins:64489
    ~lb:36.632812
    ~makespans:[ 51.0; 49.0; 47.0; 48.0 ] (* SGH; EGH; VGH; EVG *)
    ()

let test_hlm51_related () =
  check_instance ~name:"HLM-5-1-MP" ~weights:Hyper.Weights.Related ~nh:6391 ~pins:25211
    ~lb:20.0
    ~makespans:[ 28.0; 27.0; 28.0; 27.0 ]
    ()

let test_fg51_singleproc () =
  let spec = List.find (fun s -> s.I.sp_name = "FG-5-1") (I.paper_grid_singleproc ()) in
  let g = I.generate_singleproc ~seed:0 spec in
  Alcotest.(check int) "edges" 12823 (Bipartite.Graph.num_edges g);
  Alcotest.(check int) "exact" 5 (Semimatch.Exact_unit.solve g).Semimatch.Exact_unit.makespan;
  List.iter2
    (fun algo expected ->
      Alcotest.(check (float 1e-9))
        (Semimatch.Greedy_bipartite.name algo)
        expected
        (Semimatch.Greedy_bipartite.makespan algo g))
    Semimatch.Greedy_bipartite.all [ 7.0; 6.0; 6.0; 6.0 ]

(* Every default portfolio solver on seeded paper-grid MULTIPROC instances
   (scaled by 8, seed 1): its makespan, an MD5 digest of its whole choice
   array, and EVG+ls's accepted-move count.  Pinned from the build that
   compared load vectors by walking the whole sorted vector, so a faster
   comparison must reproduce every choice, not only the makespans. *)
let digest choice =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int choice))))

let check_solvers ~name ~weights expected () =
  let spec = I.scaled 8 (find name) in
  let h = I.generate_multiproc ~seed:1 ~weights spec in
  let module P = Semimatch.Portfolio in
  List.iter2
    (fun solver (makespan, choice_digest, moves) ->
      let label = Printf.sprintf "%s/%s %s" name (Hyper.Weights.name weights) (P.solver_name solver) in
      let a, m =
        match solver with
        | P.Greedy algo -> (Gh.run algo h, None)
        | P.Refined algo ->
            let a, m = Semimatch.Local_search.refine h (Gh.run algo h) in
            (a, Some m)
        | P.Annealed seed ->
            let a, reported = Semimatch.Annealing.solve (Randkit.Prng.create ~seed) h in
            Alcotest.(check (float 0.0)) (label ^ " reported makespan") makespan reported;
            (a, None)
      in
      Alcotest.(check (float 0.0)) (label ^ " makespan") makespan (Semimatch.Hyp_assignment.makespan h a);
      Alcotest.(check string) (label ^ " choices") choice_digest (digest a.Semimatch.Hyp_assignment.choice);
      Alcotest.(check (option int)) (label ^ " moves") moves m)
    P.default_solvers expected

(* (makespan, choice digest, local-search moves) for SGH; EGH; VGH; EVG;
   EVG+ls; anneal@1. *)
let solvers_fg204_unit =
  check_solvers ~name:"FG-20-4-MP" ~weights:Hyper.Weights.Unit
    [
      (55.0, "ec8e09fc795e8bf71aedead12de9fecc", None);
      (50.0, "0dac886b1b39d7dcdbf7622089a2ce2c", None);
      (48.0, "993c92117ab2b5a989977ca5b28f255c", None);
      (48.0, "c24519b452a305ffaadedffcaa50fa20", None);
      (45.0, "e8ab08d4d8c7c48dba5b4571b3c89ade", Some 309);
      (48.0, "f931b4d2cf3abd6e0b7aed5e89f57589", None);
    ]

let solvers_fg204_related =
  check_solvers ~name:"FG-20-4-MP" ~weights:Hyper.Weights.Related
    [
      (275.0, "ded4241f7fa0e115b470c0e2821dd38a", None);
      (266.0, "8063534ee4e010a5bdc226b2f14c5bc5", None);
      (272.0, "396b56141a52b6589cf07897c3bacc03", None);
      (265.0, "f55c765c262473029460c84878a6627c", None);
      (258.0, "91427e514205d31330f41c212d116a81", Some 148);
      (270.0, "f8d4c1a2537eb4e3a0c4e9e892a8249a", None);
    ]

let solvers_mg204_unit =
  check_solvers ~name:"MG-20-4-MP" ~weights:Hyper.Weights.Unit
    [
      (17.0, "9b85acf2918e0ce4cebd83bd64744401", None);
      (17.0, "65761a730913a436e58b52ebdbd08574", None);
      (17.0, "cd376d830e9b20e5cd58606477e0a498", None);
      (17.0, "84d682553fa0ce1a9ea78013526d291b", None);
      (17.0, "f356125421b13f90d6a84c6e3b2ab21e", Some 7);
      (17.0, "9b85acf2918e0ce4cebd83bd64744401", None);
    ]

let solvers_mg204_related =
  check_solvers ~name:"MG-20-4-MP" ~weights:Hyper.Weights.Related
    [
      (35.0, "e6b577d1dfe3dfbfee6e5b51dc92e248", None);
      (34.0, "19c7f0c76e6712c971807d5376d99472", None);
      (35.0, "39b759a3ae7d467f2ef4c5604638b1c2", None);
      (34.0, "8411e086e962e11947823fcb06d85d50", None);
      (34.0, "6f2d8772b2b89af5ed7a2e4e9ef8116c", Some 7);
      (34.0, "396cfc05dc975116e65154700bab1f07", None);
    ]

let solvers_hlm51_unit =
  check_solvers ~name:"HLM-5-1-MP" ~weights:Hyper.Weights.Unit
    [
      (12.0, "e1e2970e3741fa0e7de971bd1f37419c", None);
      (11.0, "b3ab8253e6fe36f6142a39e6607750cb", None);
      (12.0, "21d48670ca5265b3f856a9b6a3fa2af0", None);
      (11.0, "a00f48f80ad7c21d642d6e763b31dd4b", None);
      (11.0, "a00f48f80ad7c21d642d6e763b31dd4b", Some 0);
      (11.0, "d86487d4d9d4cb2b1b1848c6bf03fbc9", None);
    ]

let solvers_hlm51_related =
  check_solvers ~name:"HLM-5-1-MP" ~weights:Hyper.Weights.Related
    [
      (15.0, "e1e2970e3741fa0e7de971bd1f37419c", None);
      (14.0, "b3ab8253e6fe36f6142a39e6607750cb", None);
      (15.0, "21d48670ca5265b3f856a9b6a3fa2af0", None);
      (14.0, "a00f48f80ad7c21d642d6e763b31dd4b", None);
      (14.0, "a00f48f80ad7c21d642d6e763b31dd4b", Some 0);
      (14.0, "2064c157f2a447ba982cee569dea1945", None);
    ]

(* Capacitated matchings and exact SINGLEPROC-UNIT solves on paper-grid
   instances: seed 1, d = 2, 5, 10, the FG, MG, HLF and HLM rows at 5-1,
   20-1, 20-4 and 80-1 (n up to 80 * 256, p up to 4 * 256).  One MD5
   covers, per instance in grid order, the edge array of
   [Exact_unit.solve] (bs-hk), the Hopcroft–Karp [mate1] at capacities
   ceil(n/p) - 1, ceil(n/p), opt - 1, opt and opt + 1 (infeasible and
   feasible), and the DFS engine's [mate1] at opt and opt + 1.  Pinned by
   running this code against the engines that rescanned every occupant of
   a saturated processor at every reach (those [Matching_reference]
   keeps), so a faster phase must reproduce every matching. *)
let matching_digest () =
  let module E = Semimatch.Exact_unit in
  let buf = Buffer.create 1_000_000 in
  let add a = Buffer.add_string buf (String.concat "," (Array.to_list (Array.map string_of_int a))) in
  let rows =
    List.concat_map
      (fun size -> List.map (fun family -> family ^ "-" ^ size) [ "FG"; "MG"; "HLF"; "HLM" ])
      [ "5-1"; "20-1"; "20-4"; "80-1" ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun spec ->
          if List.mem spec.I.sp_name rows then begin
            let g = I.generate_singleproc ~seed:1 spec in
            let sol = E.solve g in
            add sol.E.assignment.Semimatch.Bip_assignment.edge;
            let opt = sol.E.makespan and lb = Semimatch.Lower_bound.singleproc_unit g in
            let mates engine c =
              add (Matching.solve ~engine ~capacities:(Array.make g.Bipartite.Graph.n2 c) g).Matching.mate1
            in
            List.iter (mates Matching.Hopcroft_karp) [ lb - 1; lb; opt - 1; opt; opt + 1 ];
            List.iter (mates Matching.Dfs) [ opt; opt + 1 ]
          end)
        (I.paper_grid_singleproc ~d ()))
    [ 2; 5; 10 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_matching_digest () =
  Alcotest.(check string)
    "matchings and exact assignments" "d42685625869f4b4bde9c4221fb67cf7" (matching_digest ())

let suite =
  [
    Alcotest.test_case "golden: FG-5-1-MP unit" `Quick test_fg51_unit;
    Alcotest.test_case "golden: HLM-5-1-MP related" `Quick test_hlm51_related;
    Alcotest.test_case "golden: FG-5-1 singleproc" `Quick test_fg51_singleproc;
    Alcotest.test_case "golden solvers: FG-20-4-MP/8 unit" `Quick solvers_fg204_unit;
    Alcotest.test_case "golden solvers: FG-20-4-MP/8 related" `Quick solvers_fg204_related;
    Alcotest.test_case "golden solvers: MG-20-4-MP/8 unit" `Quick solvers_mg204_unit;
    Alcotest.test_case "golden solvers: MG-20-4-MP/8 related" `Quick solvers_mg204_related;
    Alcotest.test_case "golden solvers: HLM-5-1-MP/8 unit" `Quick solvers_hlm51_unit;
    Alcotest.test_case "golden solvers: HLM-5-1-MP/8 related" `Quick solvers_hlm51_related;
    Alcotest.test_case "golden: SINGLEPROC matchings digest" `Quick test_matching_digest;
  ]
