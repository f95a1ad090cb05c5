module G = Bipartite.Graph

let check = Alcotest.(check bool)

(* Reference: maximum capacitated matching size by exhaustive search over
   per-task choices (processor or unassigned). *)
let brute_force_max_size g caps =
  let n1 = g.G.n1 in
  let count = Array.make g.G.n2 0 in
  let best = ref 0 in
  let rec go v matched =
    if matched + (n1 - v) <= !best then ()
    else if v = n1 then best := max !best matched
    else begin
      (* Leave v exposed... *)
      go (v + 1) matched;
      (* ...or match it to any processor with residual capacity. *)
      G.iter_neighbors g v (fun u _w ->
          if count.(u) < caps.(u) then begin
            count.(u) <- count.(u) + 1;
            go (v + 1) (matched + 1);
            count.(u) <- count.(u) - 1
          end)
    end
  in
  go 0 0;
  !best

let random_graph rng ~n1 ~n2 ~edge_prob =
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    for u = 0 to n2 - 1 do
      if Randkit.Prng.float rng 1.0 < edge_prob then edges := (v, u) :: !edges
    done
  done;
  G.unit_weights ~n1 ~n2 ~edges:!edges

let engines_optimal_prop engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches brute force" (Matching.engine_name engine))
    ~count:150
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 7 and n2 = 1 + Randkit.Prng.int rng 5 in
      let g = random_graph rng ~n1 ~n2 ~edge_prob:0.4 in
      let caps = Array.init n2 (fun _ -> Randkit.Prng.int rng 3) in
      let result = Matching.solve ~engine ~capacities:caps g in
      Matching.is_maximal_valid ~capacities:caps g result
      && result.Matching.size = brute_force_max_size g caps)

let engines_agree_prop =
  QCheck.Test.make ~name:"all engines return the same cardinality" ~count:150
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 30 and n2 = 1 + Randkit.Prng.int rng 15 in
      let g = random_graph rng ~n1 ~n2 ~edge_prob:0.15 in
      let caps = Array.init n2 (fun _ -> Randkit.Prng.int rng 4) in
      let sizes =
        List.map
          (fun engine -> (Matching.solve ~engine ~capacities:caps g).Matching.size)
          Matching.all_engines
      in
      match sizes with [ a; b; c ] -> a = b && b = c | _ -> false)

let test_empty_graph () =
  let g = G.unit_weights ~n1:0 ~n2:3 ~edges:[] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) "empty" 0 r.Matching.size)
    Matching.all_engines

let test_no_edges () =
  let g = G.unit_weights ~n1:3 ~n2:3 ~edges:[] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) "nothing matched" 0 r.Matching.size;
      Alcotest.(check (array int)) "all exposed" [| -1; -1; -1 |] r.Matching.mate1)
    Matching.all_engines

let test_perfect_matching_cycle () =
  (* Even cycle as bipartite graph: v_i -- u_i, u_(i+1). *)
  let n = 50 in
  let edges = List.concat (List.init n (fun i -> [ (i, i); (i, (i + 1) mod n) ])) in
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) (Matching.engine_name engine ^ " perfect") n r.Matching.size;
      check "valid" true (Matching.is_maximal_valid g r))
    Matching.all_engines

let test_capacity_zero_blocks () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine ~capacities:[| 0 |] g in
      Alcotest.(check int) "capacity 0" 0 r.Matching.size)
    Matching.all_engines

let test_capacity_two_absorbs () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine ~capacities:[| 2 |] g in
      Alcotest.(check int) "capacity 2" 2 r.Matching.size)
    Matching.all_engines

let test_augmenting_chain () =
  (* A chain forcing a long augmenting path: greedy init matches v0-u0;
     v1 only knows u0, v0 also knows u1, etc. *)
  let n = 30 in
  let edges = List.concat (List.init n (fun i -> if i = 0 then [ (0, 0) ] else [ (i, i - 1); (i, i) ])) in
  (* Reverse roles so the chain propagates: v_i -- {u_(i-1), u_i}; v_0 -- u_0. *)
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) (Matching.engine_name engine ^ " chain") n r.Matching.size)
    Matching.all_engines

let test_capacity_length_mismatch () =
  let g = G.unit_weights ~n1:1 ~n2:2 ~edges:[ (0, 0) ] in
  Alcotest.check_raises "bad capacity length" (Invalid_argument "Matching: capacities length mismatch")
    (fun () -> ignore (Matching.solve ~capacities:[| 1 |] g))

let test_occupancy () =
  let g = G.unit_weights ~n1:3 ~n2:2 ~edges:[ (0, 0); (1, 0); (2, 1) ] in
  let r = Matching.solve ~capacities:[| 2; 1 |] g in
  Alcotest.(check int) "all matched" 3 r.Matching.size;
  Alcotest.(check (array int)) "occupancy" [| 2; 1 |] (Matching.occupancy g r)

let test_stats () =
  let n = 40 in
  let edges = List.concat (List.init n (fun i -> [ (i, i); (i, (i + 1) mod n) ])) in
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let result, stats = Matching.solve_with_stats ~engine g in
      Alcotest.(check int) "size" n result.Matching.size;
      (* The greedy initialization is not counted, so augmentations only
         cover the residual work. *)
      check "augmentations bounded" true
        (stats.Matching.augmentations >= 0 && stats.Matching.augmentations <= result.Matching.size);
      check "scan counter plausible" true (stats.Matching.scans >= 0);
      match engine with
      | Matching.Hopcroft_karp -> check "phases counted" true (stats.Matching.phases >= 1)
      | Matching.Push_relabel ->
          (* One global relabel at initialization. *)
          Alcotest.(check int) "init relabel" 1 stats.Matching.phases
      | Matching.Dfs -> Alcotest.(check int) "no phases" 0 stats.Matching.phases)
    Matching.all_engines

let test_stats_steals_only_push_relabel () =
  (* Force contention: two tasks, one processor of capacity 1 plus a
     fallback, so push-relabel must relocate at least once. *)
  let g = G.unit_weights ~n1:2 ~n2:2 ~edges:[ (0, 0); (1, 0); (1, 1) ] in
  let _, dfs_stats = Matching.solve_with_stats ~engine:Matching.Dfs g in
  Alcotest.(check int) "dfs never steals" 0 dfs_stats.Matching.steals;
  let _, hk_stats = Matching.solve_with_stats ~engine:Matching.Hopcroft_karp g in
  Alcotest.(check int) "hk never steals" 0 hk_stats.Matching.steals

(* Oracle: the engines must return the matching of the versions that
   rescanned every occupant at every reach ([Matching_reference]), byte for
   byte.  Half the instances are uniform random graphs, sparse to dense,
   with capacities drawn per processor from 0..8 or one value near
   ceil(n1/n2), where many augmentations of one phase pass through the same
   saturated processor.  The other half are small FewgManyg graphs at
   ceil(n1/n2) - 1 .. ceil(n1/n2) + 1: their group structure makes longer
   phases, in which processors with room at BFS time fill up and are
   scanned again. *)
let oracle_instance rng =
  if Randkit.Prng.int rng 2 = 0 then begin
    let n1 = 1 + Randkit.Prng.int rng 60 and n2 = 1 + Randkit.Prng.int rng 12 in
    let edge_prob = [| 0.05; 0.15; 0.4; 0.9 |].(Randkit.Prng.int rng 4) in
    let g = random_graph rng ~n1 ~n2 ~edge_prob in
    let caps =
      if Randkit.Prng.int rng 2 = 0 then Array.init n2 (fun _ -> Randkit.Prng.int rng 9)
      else Array.make n2 (max 0 (((n1 + n2 - 1) / n2) - 1 + Randkit.Prng.int rng 3))
    in
    (g, caps)
  end
  else begin
    let n2 = 2 + Randkit.Prng.int rng 40 in
    let n1 = n2 * (1 + Randkit.Prng.int rng 20) in
    let g =
      Bipartite.Fewg_manyg.generate rng ~n1 ~n2
        ~g:(1 + Randkit.Prng.int rng (n2 / 2))
        ~d:(1 + Randkit.Prng.int rng 5)
    in
    (g, Array.make n2 ((n1 / n2) - 1 + Randkit.Prng.int rng 3))
  end

let oracle_prop ~name engine reference =
  QCheck.Test.make ~name ~count:1000
    QCheck.(int_bound 1000000)
    (fun seed ->
      let g, caps = oracle_instance (Randkit.Prng.create ~seed) in
      let got = (Matching.solve ~engine ~capacities:caps g).Matching.mate1 in
      let want = reference g ~caps in
      got = want
      || QCheck.Test.fail_reportf "n1=%d n2=%d caps=[%s]\n  engine:    %s\n  reference: %s" g.G.n1 g.G.n2
           (String.concat ";" (Array.to_list (Array.map string_of_int caps)))
           (String.concat ";" (Array.to_list (Array.map string_of_int got)))
           (String.concat ";" (Array.to_list (Array.map string_of_int want))))

(* Work bound: a phase examines each occupant of a saturated processor at
   most once in the BFS and once in the DFS (processors filled during the
   phase aside), so the count stays within phases * (n1 + m).  Counting,
   not timing: the regression gate's bands are too wide to see this. *)
let complete_bipartite ~n1 ~n2 =
  G.unit_weights ~n1 ~n2 ~edges:(List.concat (List.init n1 (fun v -> List.init n2 (fun u -> (v, u)))))

let occupant_scans = Obs.Metrics.counter "matching.hk.occupant_scans"

let check_linear_work label g ~caps =
  let result, stats =
    Obs.with_recording (fun () ->
        Matching.solve_with_stats ~engine:Matching.Hopcroft_karp ~capacities:caps g)
  in
  let scans = Obs.Metrics.value occupant_scans in
  let bound = stats.Matching.phases * (g.G.n1 + G.num_edges g) in
  if scans > bound then
    Alcotest.failf "%s: %d occupant scans in %d phases, bound %d" label scans stats.Matching.phases bound;
  (result, stats.Matching.phases, scans)

let test_occupant_work_linear () =
  (* K(400,4) at capacity 99: 396 rows fit, 4 stay exposed, and one phase
     layers every occupant.  Rescanning at every reach examined
     4 * 4 * 99 + 396 * 4 * 99 = 158,400 occupants in that phase. *)
  let g = complete_bipartite ~n1:400 ~n2:4 in
  let _, phases, scans = check_linear_work "K(400,4)" g ~caps:(Array.make 4 99) in
  Alcotest.(check int) "one phase" 1 phases;
  Alcotest.(check int) "each occupant layered once" 396 scans;
  (* A hub (processor 0) of capacity 200 whose occupants can go nowhere
     else, a processor 1 held by row 0, which could move on to the free
     processor 2, and 199 exposed rows that know the hub and processor 1.
     Every exposed row reaches the hub in the BFS and again in the DFS;
     the first fails all 200 occupants, then takes row 0's place. *)
  let hub_occupants = List.init 200 (fun i -> (1 + i, 0)) in
  let exposed = List.concat (List.init 199 (fun i -> [ (201 + i, 0); (201 + i, 1) ])) in
  let g = G.unit_weights ~n1:400 ~n2:3 ~edges:(((0, 1) :: (0, 2) :: hub_occupants) @ exposed) in
  let result, phases, _ = check_linear_work "hub" g ~caps:[| 200; 1; 1 |] in
  Alcotest.(check int) "one augmentation" 202 result.Matching.size;
  Alcotest.(check int) "two phases" 2 phases;
  (* Dense random instances near the capacity boundary, where processors
     with room at BFS time fill up during the DFS. *)
  let rng = Randkit.Prng.create ~seed:17 in
  for i = 1 to 20 do
    let g = random_graph rng ~n1:300 ~n2:10 ~edge_prob:0.3 in
    ignore (check_linear_work (Printf.sprintf "random %d" i) g ~caps:(Array.make 10 (29 + (i mod 3))))
  done

let suite =
  [
    Alcotest.test_case "engine statistics" `Quick test_stats;
    Alcotest.test_case "steal counter" `Quick test_stats_steals_only_push_relabel;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "no edges" `Quick test_no_edges;
    Alcotest.test_case "perfect matching on a cycle" `Quick test_perfect_matching_cycle;
    Alcotest.test_case "capacity 0 blocks" `Quick test_capacity_zero_blocks;
    Alcotest.test_case "capacity 2 absorbs" `Quick test_capacity_two_absorbs;
    Alcotest.test_case "long augmenting chains" `Quick test_augmenting_chain;
    Alcotest.test_case "capacity length mismatch" `Quick test_capacity_length_mismatch;
    Alcotest.test_case "occupancy" `Quick test_occupancy;
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Dfs);
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Hopcroft_karp);
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Push_relabel);
    QCheck_alcotest.to_alcotest engines_agree_prop;
    QCheck_alcotest.to_alcotest
      (oracle_prop ~name:"hopcroft-karp = reference, byte for byte" Matching.Hopcroft_karp
         Matching_reference.hopcroft_karp);
    QCheck_alcotest.to_alcotest
      (oracle_prop ~name:"dfs = reference, byte for byte" Matching.Dfs Matching_reference.dfs);
    Alcotest.test_case "hopcroft-karp occupant work linear per phase" `Quick test_occupant_work_linear;
  ]
