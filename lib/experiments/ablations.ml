module Gh = Semimatch.Greedy_hyper

type table = string

let time_it f = Runner.time_it ~span:"experiments.ablation" f

let mean xs = Ds.Stats.mean (Array.of_list xs)

let vector_variants ~seeds spec =
  let replicates =
    List.init seeds (fun seed ->
        Instances.generate_multiproc ~seed ~weights:Hyper.Weights.Related spec)
  in
  let row algo variant label =
    let times, makespans =
      List.split
        (List.map
           (fun h ->
             let a, dt = time_it (fun () -> Gh.run ~vector_variant:variant algo h) in
             (dt, Semimatch.Hyp_assignment.makespan h a))
           replicates)
    in
    [ label; Tables.fmt_time (mean times); Printf.sprintf "%.4g" (mean makespans) ]
  in
  let rows =
    [
      row Gh.Vector_greedy_hyp Gh.Naive "VGH naive (paper's implementation)";
      row Gh.Vector_greedy_hyp Gh.Merged "VGH changed values (Sec. IV-D3 idea)";
      row Gh.Expected_vector_greedy_hyp Gh.Naive "EVG naive";
      row Gh.Expected_vector_greedy_hyp Gh.Merged "EVG changed values";
    ]
  in
  Printf.sprintf "Ablation: vector-heuristic variant on %s (related weights, %d seeds)\n\n%s"
    spec.Instances.name seeds
    (Tables.render ~header:[ "variant"; "mean time (s)"; "mean makespan" ] ~rows ())

let matching_engines ~seeds spec =
  let replicates = List.init seeds (fun seed -> Instances.generate_singleproc ~seed spec) in
  let rows =
    List.map
      (fun engine ->
        let times, spans =
          List.split
            (List.map
               (fun g ->
                 let s, dt = time_it (fun () -> Semimatch.Exact_unit.solve ~engine g) in
                 (dt, float_of_int s.Semimatch.Exact_unit.makespan))
               replicates)
        in
        [ Matching.engine_name engine; Tables.fmt_time (mean times); Printf.sprintf "%.4g" (mean spans) ])
      Matching.all_engines
  in
  Printf.sprintf "Ablation: matching engine inside the exact algorithm on %s (%d seeds)\n\n%s"
    spec.Instances.sp_name seeds
    (Tables.render ~header:[ "engine"; "mean time (s)"; "mean optimum" ] ~rows ())

let exact_strategies ~seeds spec =
  let replicates = List.init seeds (fun seed -> Instances.generate_singleproc ~seed spec) in
  let strategy_row strategy =
    let measured =
      List.map
        (fun g ->
          let s, dt = time_it (fun () -> Semimatch.Exact_unit.solve ~strategy g) in
          (dt, float_of_int s.Semimatch.Exact_unit.deadlines_tried,
           float_of_int s.Semimatch.Exact_unit.makespan))
        replicates
    in
    let times = List.map (fun (t, _, _) -> t) measured in
    let tried = List.map (fun (_, d, _) -> d) measured in
    let spans = List.map (fun (_, _, m) -> m) measured in
    [
      Semimatch.Exact_unit.strategy_name strategy;
      Tables.fmt_time (mean times);
      Printf.sprintf "%.1f" (mean tried);
      Printf.sprintf "%.4g" (mean spans);
    ]
  in
  let harvey_row =
    let measured =
      List.map
        (fun g ->
          let s, dt = time_it (fun () -> Semimatch.Harvey.solve g) in
          (dt, float_of_int s.Semimatch.Harvey.makespan))
        replicates
    in
    [
      "harvey (ASM, ref. [14])";
      Tables.fmt_time (mean (List.map fst measured));
      "-";
      Printf.sprintf "%.4g" (mean (List.map snd measured));
    ]
  in
  let rows =
    [
      strategy_row Semimatch.Exact_unit.Incremental;
      strategy_row Semimatch.Exact_unit.Bisection;
      harvey_row;
    ]
  in
  Printf.sprintf "Ablation: exact-algorithm search strategy on %s (%d seeds)\n\n%s"
    spec.Instances.sp_name seeds
    (Tables.render ~header:[ "method"; "mean time (s)"; "deadlines"; "mean optimum" ] ~rows ())

let baselines ~seeds spec =
  let weights = Hyper.Weights.Related in
  let replicates =
    List.init seeds (fun seed -> Instances.generate_multiproc ~seed ~weights spec)
  in
  let lbs = List.map Semimatch.Lower_bound.multiproc replicates in
  let measure label solve =
    let ratios, times =
      List.split
        (List.map2
           (fun h lb ->
             let a, dt = time_it (fun () -> solve h) in
             (Semimatch.Hyp_assignment.makespan h a /. lb, dt))
           replicates lbs)
    in
    [ label; Tables.fmt_ratio (mean ratios); Tables.fmt_time (mean times) ]
  in
  let rng () = Randkit.Prng.create ~seed:1234 in
  let rows =
    [
      measure "random assignment" (fun h -> Semimatch.Randomized.random_assignment (rng ()) h);
      measure "random-order greedy" (fun h -> Semimatch.Randomized.random_order_greedy (rng ()) h);
      measure "SGH (degree order)" (fun h -> Gh.run Gh.Sorted_greedy_hyp h);
      measure "EGH" (fun h -> Gh.run Gh.Expected_greedy_hyp h);
      measure "EVG" (fun h -> Gh.run Gh.Expected_vector_greedy_hyp h);
      measure "EVG + local search" (fun h ->
          fst (Semimatch.Local_search.refine h (Gh.run Gh.Expected_vector_greedy_hyp h)));
      measure "GRASP (10x random-order + LS)" (fun h ->
          fst
            (Semimatch.Randomized.restarts ~refine:true ~rounds:10 (rng ()) h
               Semimatch.Randomized.random_order_greedy));
      measure "simulated annealing (from SGH)" (fun h ->
          fst (Semimatch.Annealing.solve (rng ()) h));
    ]
  in
  Printf.sprintf "Ablation: informed heuristics vs randomized baselines on %s (%s weights, %d seeds)\n\n%s"
    spec.Instances.name (Hyper.Weights.name weights) seeds
    (Tables.render ~header:[ "method"; "ratio to LB"; "mean time (s)" ] ~rows ())

let run_all ?(seeds = 3) ?(scale = 1) () =
  let find name = List.find (fun s -> s.Instances.name = name) (Instances.paper_grid ()) in
  let find_sp name =
    List.find (fun s -> s.Instances.sp_name = name) (Instances.paper_grid_singleproc ())
  in
  let scale_sp spec = Instances.scaled_singleproc scale spec in
  String.concat "\n"
    [
      vector_variants ~seeds (Instances.scaled scale (find "FG-5-1-MP"));
      matching_engines ~seeds (scale_sp (find_sp "HLF-20-4"));
      exact_strategies ~seeds (scale_sp (find_sp "HLF-20-4"));
      baselines ~seeds (Instances.scaled scale (find "FG-20-4-MP"));
    ]
