module Vec = Ds.Vec
module Heap = Ds.Indexed_heap
module Lv = Ds.Load_vector

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  check "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set/get" (-1) (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_pop_clear () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.push v 2;
  Alcotest.(check (option int)) "pop" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v);
  Vec.push v 5;
  Vec.clear v;
  check "cleared" true (Vec.is_empty v)

let test_vec_conversions () =
  let v = Vec.of_array [| 3; 1; 4 |] in
  Alcotest.(check (array int)) "roundtrip" [| 3; 1; 4 |] (Vec.to_array v);
  let sum = Vec.fold_left ( + ) 0 v in
  Alcotest.(check int) "fold" 8 sum;
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  Alcotest.(check int) "iteri count" 3 (List.length !collected)

(* ----------------------------------------------------------------- Heap *)

let test_heap_pop_order () =
  let h = Heap.create 10 in
  List.iter (fun (k, p) -> Heap.insert h k p) [ (0, 5.0); (1, 1.0); (2, 3.0); (3, 0.5); (4, 4.0) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _) ->
        order := k :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending priority order" [ 3; 1; 2; 4; 0 ] (List.rev !order)

let test_heap_update () =
  let h = Heap.create 4 in
  Heap.insert h 0 10.0;
  Heap.insert h 1 20.0;
  Heap.insert h 2 30.0;
  Heap.update h 2 1.0;
  Alcotest.(check (option (pair int (float 1e-9)))) "decrease-key" (Some (2, 1.0)) (Heap.min h);
  Heap.update h 2 40.0;
  Alcotest.(check (option (pair int (float 1e-9)))) "increase-key" (Some (0, 10.0)) (Heap.min h)

let test_heap_mem_and_errors () =
  let h = Heap.create 3 in
  Heap.insert h 1 2.0;
  check "mem" true (Heap.mem h 1);
  check "not mem" false (Heap.mem h 0);
  Alcotest.check_raises "double insert" (Invalid_argument "Indexed_heap.insert: key already present")
    (fun () -> Heap.insert h 1 3.0);
  Alcotest.check_raises "update absent" (Invalid_argument "Indexed_heap.update: key absent")
    (fun () -> Heap.update h 0 1.0)

let heap_property =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (pair (int_bound 999) (float_range 0.0 100.0)))
    (fun pairs ->
      (* Dedupe keys: each key may be present at most once. *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, p) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k p) pairs;
      let h = Heap.create 1000 in
      Hashtbl.iter (fun k p -> Heap.insert h k p) tbl;
      let rec drain acc =
        match Heap.pop_min h with Some (_, p) -> drain (p :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort compare popped = popped && List.length popped = Hashtbl.length tbl)

(* -------------------------------------------------------- Counting sort *)

let test_counting_sort_permutation () =
  let keys = [| 3; 1; 4; 1; 5; 9; 2; 6; 5; 3 |] in
  let perm =
    Ds.Counting_sort.permutation ~n:(Array.length keys) ~key:(fun i -> keys.(i)) ~max_key:9
  in
  (* Stable and sorted. *)
  for i = 1 to Array.length perm - 1 do
    let a = perm.(i - 1) and b = perm.(i) in
    check "non-decreasing keys" true (keys.(a) < keys.(b) || (keys.(a) = keys.(b) && a < b))
  done;
  let seen = Array.copy perm in
  Array.sort compare seen;
  Alcotest.(check (array int)) "permutation" (Array.init 10 Fun.id) seen

let counting_sort_property =
  QCheck.Test.make ~name:"sort_ints matches stdlib sort" ~count:300
    QCheck.(array (int_bound 5000))
    (fun a ->
      let mine = Array.copy a and reference = Array.copy a in
      Ds.Counting_sort.sort_ints mine;
      Array.sort compare reference;
      mine = reference)

(* ---------------------------------------------------------------- Stats *)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Ds.Stats.median [| 5.0; 3.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Ds.Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check int) "int even keeps lower" 2 (Ds.Stats.median_int [| 4; 1; 2; 3 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty input") (fun () ->
      ignore (Ds.Stats.median [||]))

let test_stats_misc () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Ds.Stats.mean a);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Ds.Stats.stddev a);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Ds.Stats.minimum a);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Ds.Stats.maximum a);
  Alcotest.(check (float 1e-9)) "q0" 2.0 (Ds.Stats.quantile a ~q:0.0);
  Alcotest.(check (float 1e-9)) "q1" 9.0 (Ds.Stats.quantile a ~q:1.0)

(* ---------------------------------------------------------- Load_vector *)

let delta_of procs amounts = { Lv.procs; amounts; len = Array.length procs }
let uniform procs w = delta_of procs (Array.map (fun _ -> w) procs)

let test_load_vector_apply () =
  let lv = Lv.create 4 in
  Lv.apply lv ~procs:[| 0; 2 |] ~w:3.0;
  Lv.add lv ~proc:2 ~w:1.0;
  Alcotest.(check (float 1e-9)) "load 0" 3.0 (Lv.load lv 0);
  Alcotest.(check (float 1e-9)) "load 2" 4.0 (Lv.load lv 2);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Lv.max_load lv);
  Alcotest.(check (array (float 1e-9))) "sorted" [| 4.0; 3.0; 0.0; 0.0 |] (Lv.sorted_desc lv)

let test_load_vector_compare () =
  let lv = Lv.create 3 in
  Lv.add lv ~proc:0 ~w:2.0;
  (* a: +1 on proc 1 -> [2;1;0]; b: +1 on proc 0 -> [3;0;0]. *)
  check "a better" true (Lv.compare_hypothetical lv (uniform [| 1 |] 1.0) (uniform [| 0 |] 1.0) < 0);
  check "symmetric" true (Lv.compare_hypothetical lv (uniform [| 0 |] 1.0) (uniform [| 1 |] 1.0) > 0);
  Alcotest.(check int) "equal candidates" 0
    (Lv.compare_hypothetical lv (uniform [| 1 |] 1.0) (uniform [| 2 |] 1.0));
  Alcotest.(check int) "no change vs no change" 0
    (Lv.compare_hypothetical lv (Lv.delta lv) (Lv.delta lv))

let test_load_vector_delta () =
  let lv = Lv.create 3 in
  Lv.add lv ~proc:0 ~w:5.0;
  Lv.add lv ~proc:1 ~w:1.0;
  Lv.apply_delta lv (delta_of [| 0; 2 |] [| -2.0; 4.0 |]);
  Alcotest.(check (array (float 1e-9))) "after delta" [| 4.0; 3.0; 1.0 |] (Lv.sorted_desc lv);
  Alcotest.(check (float 1e-9)) "loads tracked" 3.0 (Lv.load lv 0)

(* EVG's expected loads can go below zero; the maximum must then be the
   largest negative load, not 0. *)
let test_load_vector_max_negative () =
  let lv = Lv.create 3 in
  Lv.apply_delta lv (delta_of [| 0; 1; 2 |] [| -1.5; -0.25; -2.0 |]);
  Alcotest.(check (float 0.0)) "max of negative loads" (-0.25) (Lv.max_load lv);
  Alcotest.(check (float 0.0)) "empty vector" 0.0 (Lv.max_load (Lv.create 0))

(* Non-integer weights from a small set: loads tie often, deep in the
   vector, and sums round (0.1 +. 0.2 <> 0.3). *)
let random_weight rng = [| 0.25; 0.5; 1.0; 0.1; 0.2; 0.3; 1.0 /. 3.0 |].(Randkit.Prng.int rng 7)
let random_amount rng = if Randkit.Prng.int rng 2 = 0 then random_weight rng else -.random_weight rng

let random_procs rng p =
  Randkit.Prng.sample_without_replacement rng ~k:(1 + Randkit.Prng.int rng (min 12 p)) ~n:p

(* Reference model: loads as plain arrays, hypothetical vectors by sort. *)
let random_lv_scenario rng p steps =
  let lv = Lv.create p in
  let model = Array.make p 0.0 in
  for _ = 1 to steps do
    let procs = random_procs rng p in
    let w = random_weight rng in
    Lv.apply lv ~procs ~w;
    Array.iter (fun u -> model.(u) <- model.(u) +. w) procs
  done;
  (lv, model)

let load_vector_matches_model =
  QCheck.Test.make ~name:"load vector sorted view matches model" ~count:200
    QCheck.(pair (int_range 1 200) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, model = random_lv_scenario rng p (Randkit.Prng.int rng (p + 1)) in
      let sorted_model = Array.copy model in
      Array.sort (fun a b -> compare b a) sorted_model;
      Lv.sorted_desc lv = sorted_model
      && Array.for_all2 (fun a b -> a = b) (Array.init p (Lv.load lv)) model
      && Lv.max_load lv = sorted_model.(0))

(* [compare_hypothetical] must order two candidates exactly as re-sorting
   both hypothetical vectors does. *)
let agrees_with_naive lv a b =
  let naive = compare (Lv.hypothetical_sorted lv a) (Lv.hypothetical_sorted lv b) in
  compare (Lv.compare_hypothetical lv a b) 0 = compare naive 0

let lazy_compare_matches_naive =
  QCheck.Test.make ~name:"lazy lexicographic compare = naive compare" ~count:300
    QCheck.(pair (int_range 2 200) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, _ = random_lv_scenario rng p (Randkit.Prng.int rng (p + 1)) in
      (* VGH's candidates: one weight on each processor of a hyperedge. *)
      let random_cand () = uniform (random_procs rng p) (random_weight rng) in
      let ok = ref true in
      for _ = 1 to 10 do
        if not (agrees_with_naive lv (random_cand ()) (random_cand ())) then ok := false
      done;
      !ok)

let lazy_delta_compare_matches_naive =
  QCheck.Test.make ~name:"delta compare = naive delta compare" ~count:300
    QCheck.(pair (int_range 2 200) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, _ = random_lv_scenario rng p (Randkit.Prng.int rng (p + 1)) in
      Lv.apply_delta lv (delta_of (random_procs rng p) (Array.init p (fun _ -> random_amount rng)));
      (* Some amounts are 0.0: such an entry leaves its load unchanged and
         must cancel. *)
      let random_delta () =
        let procs = random_procs rng p in
        delta_of procs
          (Array.map (fun _ -> if Randkit.Prng.int rng 4 = 0 then 0.0 else random_amount rng) procs)
      in
      (* Local search's moves out of one configuration: −w_old on its
         processors and +w_new on the new one's, summed where the two
         overlap, so an overlap at equal weights sums to exactly 0.0.  A
         move against staying put, or against another move. *)
      let move_pair () =
        let old_procs = random_procs rng p and w_old = random_weight rng in
        let move () =
          let kept = List.filter (fun _ -> Randkit.Prng.int rng 2 = 0) (Array.to_list old_procs) in
          let fresh =
            List.filter (fun u -> not (Array.mem u old_procs)) (Array.to_list (random_procs rng p))
          in
          let new_procs = kept @ fresh in
          let w_new = if Randkit.Prng.int rng 2 = 0 then w_old else random_weight rng in
          let procs = Array.append old_procs (Array.of_list fresh) in
          delta_of procs
            (Array.map
               (fun u ->
                 (if Array.mem u old_procs then 0.0 -. w_old else 0.0)
                 +. if List.mem u new_procs then w_new else 0.0)
               procs)
        in
        let a = move () in
        (a, if Randkit.Prng.int rng 2 = 0 then Lv.delta lv else move ())
      in
      (* EVG's candidates: one [procs] array filled into a reusable delta,
         amounts that agree on some processors and differ on others. *)
      let shared_pair () =
        let a = Lv.delta lv in
        let procs = random_procs rng p in
        a.Lv.len <- Array.length procs;
        Array.blit procs 0 a.Lv.procs 0 a.Lv.len;
        for i = 0 to a.Lv.len - 1 do
          a.Lv.amounts.(i) <- random_amount rng
        done;
        let b = { a with Lv.amounts = Array.copy a.Lv.amounts } in
        for i = 0 to b.Lv.len - 1 do
          if Randkit.Prng.int rng 2 = 0 then b.Lv.amounts.(i) <- b.Lv.amounts.(i) +. random_amount rng
        done;
        (a, b)
      in
      let ok = ref true in
      for _ = 1 to 10 do
        let a, b =
          match Randkit.Prng.int rng 4 with
          | 0 -> shared_pair ()
          | 1 -> (random_delta (), Lv.delta lv) (* a move vs staying put *)
          | 2 -> move_pair ()
          | _ -> (random_delta (), random_delta ())
        in
        if not (agrees_with_naive lv a b && agrees_with_naive lv b a) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec pop/clear" `Quick test_vec_pop_clear;
    Alcotest.test_case "vec conversions" `Quick test_vec_conversions;
    Alcotest.test_case "heap pop order" `Quick test_heap_pop_order;
    Alcotest.test_case "heap update" `Quick test_heap_update;
    Alcotest.test_case "heap membership/errors" `Quick test_heap_mem_and_errors;
    QCheck_alcotest.to_alcotest heap_property;
    Alcotest.test_case "counting sort permutation" `Quick test_counting_sort_permutation;
    QCheck_alcotest.to_alcotest counting_sort_property;
    Alcotest.test_case "stats median" `Quick test_stats_median;
    Alcotest.test_case "stats misc" `Quick test_stats_misc;
    Alcotest.test_case "load vector apply" `Quick test_load_vector_apply;
    Alcotest.test_case "load vector compare" `Quick test_load_vector_compare;
    Alcotest.test_case "load vector delta" `Quick test_load_vector_delta;
    Alcotest.test_case "load vector max below zero" `Quick test_load_vector_max_negative;
    QCheck_alcotest.to_alcotest load_vector_matches_model;
    QCheck_alcotest.to_alcotest lazy_compare_matches_naive;
    QCheck_alcotest.to_alcotest lazy_delta_compare_matches_naive;
  ]
