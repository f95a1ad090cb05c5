(* Differential tests: independent implementations of the same quantity must
   agree.  Random unit-weight SINGLEPROC instances (every task covered, so
   always feasible) pit the three matching engines against each other and
   the exact solver against brute force; the portfolio is checked against
   the sequential heuristics it is built from. *)

module Prng = Randkit.Prng
module Gh = Semimatch.Greedy_hyper

let gen_bipartite rng =
  let n1 = 1 + Prng.int rng 12 and n2 = 1 + Prng.int rng 6 in
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    let d = 1 + Prng.int rng (min 3 n2) in
    let procs = Prng.sample_without_replacement rng ~k:d ~n:n2 in
    Array.iter (fun u -> edges := (v, u) :: !edges) procs
  done;
  Bipartite.Graph.unit_weights ~n1 ~n2 ~edges:!edges

let test_engines_agree_on_cardinality () =
  let rng = Prng.create ~seed:101 in
  for i = 1 to 250 do
    let g = gen_bipartite (Prng.split rng) in
    let sizes =
      List.map (fun engine -> (Matching.solve ~engine g).Matching.size) Matching.all_engines
    in
    match sizes with
    | reference :: rest ->
        List.iteri
          (fun j s ->
            if s <> reference then
              Alcotest.failf "instance %d: engine %d found %d matched, reference %d" i (j + 1) s
                reference)
          rest
    | [] -> assert false
  done

let test_engines_agree_on_exact_makespan () =
  let rng = Prng.create ~seed:102 in
  for i = 1 to 250 do
    let g = gen_bipartite (Prng.split rng) in
    let makespans =
      List.concat_map
        (fun engine ->
          List.map
            (fun strategy ->
              (Semimatch.Exact_unit.solve ~engine ~strategy g).Semimatch.Exact_unit.makespan)
            [ Semimatch.Exact_unit.Incremental; Semimatch.Exact_unit.Bisection ])
        Matching.all_engines
    in
    match makespans with
    | reference :: rest ->
        List.iter
          (fun m ->
            if m <> reference then
              Alcotest.failf "instance %d: optimal makespans disagree (%d vs %d)" i m reference)
          rest
    | [] -> assert false
  done

let test_brute_force_agrees_with_exact () =
  (* Tiny instances only: the brute force enumerates all Π d_v choices. *)
  let rng = Prng.create ~seed:103 in
  for i = 1 to 60 do
    let r = Prng.split rng in
    let n1 = 1 + Prng.int r 5 and n2 = 1 + Prng.int r 3 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r (min 2 n2) in
      let procs = Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = Bipartite.Graph.unit_weights ~n1 ~n2 ~edges:!edges in
    let opt_bf, _ = Semimatch.Brute_force.singleproc g in
    let opt_exact = (Semimatch.Exact_unit.solve g).Semimatch.Exact_unit.makespan in
    if Float.abs (opt_bf -. float_of_int opt_exact) > 1e-9 then
      Alcotest.failf "instance %d: brute force %.17g vs exact %d" i opt_bf opt_exact
  done

let test_brute_force_agrees_multiproc () =
  (* MULTIPROC: the branch-and-bound optimum must never exceed (and the
     portfolio never beat) any heuristic. *)
  let rng = Prng.create ~seed:104 in
  for i = 1 to 40 do
    let r = Prng.split rng in
    let n1 = 1 + Prng.int r 5 and n2 = 1 + Prng.int r 3 in
    let hyperedges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r 2 in
      for _ = 1 to d do
        let k = 1 + Prng.int r (min 2 n2) in
        let procs = Prng.sample_without_replacement r ~k ~n:n2 in
        hyperedges := (v, procs, float_of_int (1 + Prng.int r 3)) :: !hyperedges
      done
    done;
    let h = Hyper.Graph.create ~n1 ~n2 ~hyperedges:!hyperedges in
    let opt, _ = Semimatch.Brute_force.multiproc h in
    let portfolio = Semimatch.Portfolio.solve h in
    if portfolio.Semimatch.Portfolio.best_makespan < opt -. 1e-9 then
      Alcotest.failf "instance %d: portfolio %.17g beat the optimum %.17g" i
        portfolio.Semimatch.Portfolio.best_makespan opt;
    List.iter
      (fun algo ->
        let m = Gh.makespan algo h in
        if m < opt -. 1e-9 then
          Alcotest.failf "instance %d: %s %.17g beat the optimum %.17g" i (Gh.name algo) m opt)
      Gh.all
  done

let test_portfolio_never_worse_than_sequential () =
  (* On the same instance the portfolio keeps the best of its member
     solvers, so it can never exceed the best sequential heuristic. *)
  let rng = Prng.create ~seed:105 in
  for i = 1 to 50 do
    let r = Prng.split rng in
    let n1 = 5 + Prng.int r 30 and n2 = 2 + Prng.int r 6 in
    let hyperedges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r 3 in
      for _ = 1 to d do
        let k = 1 + Prng.int r (min 3 n2) in
        let procs = Prng.sample_without_replacement r ~k ~n:n2 in
        hyperedges := (v, procs, float_of_int (1 + Prng.int r 4)) :: !hyperedges
      done
    done;
    let h = Hyper.Graph.create ~n1 ~n2 ~hyperedges:!hyperedges in
    let best_sequential =
      List.fold_left (fun acc algo -> Float.min acc (Gh.makespan algo h)) infinity Gh.all
    in
    let portfolio = Semimatch.Portfolio.solve h in
    if portfolio.Semimatch.Portfolio.best_makespan > best_sequential +. 1e-9 then
      Alcotest.failf "instance %d: portfolio %.17g worse than best sequential %.17g" i
        portfolio.Semimatch.Portfolio.best_makespan best_sequential
  done

let suite =
  [
    Alcotest.test_case "matching engines agree on cardinality (250 instances)" `Quick
      test_engines_agree_on_cardinality;
    Alcotest.test_case "engines x strategies agree on exact makespan (250 instances)" `Quick
      test_engines_agree_on_exact_makespan;
    Alcotest.test_case "brute force = exact on tiny SINGLEPROC-UNIT" `Quick
      test_brute_force_agrees_with_exact;
    Alcotest.test_case "brute force lower-bounds heuristics and portfolio" `Quick
      test_brute_force_agrees_multiproc;
    Alcotest.test_case "portfolio never worse than best sequential" `Quick
      test_portfolio_never_worse_than_sequential;
  ]
