module Prng = Randkit.Prng
module Binomial = Randkit.Binomial

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check "different seeds differ" true !differs

let test_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copies agree" (Prng.next_int64 a) (Prng.next_int64 b);
  ignore (Prng.next_int64 a);
  Alcotest.(check int64) "advancing one does not move the other"
    (Prng.next_int64 a) (let _ = Prng.next_int64 b in Prng.next_int64 b)

let test_split_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  check "split stream differs" true (xa <> xb)

let test_int_bounds () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let rng = Prng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_int_covers_all_values () =
  let rng = Prng.create ~seed:11 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Prng.int rng 5) <- true
  done;
  check "all residues hit" true (Array.for_all Fun.id seen)

let test_int_roughly_uniform () =
  let rng = Prng.create ~seed:5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* Expected 10000, sd ≈ 95: a ±5 sd corridor. *)
      check "bucket within 5 sigma" true (c > 9500 && c < 10500))
    counts

let test_int_in_range () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Prng.int_in_range rng ~lo:(-5) ~hi:5 in
    check "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Prng.int_in_range rng ~lo:3 ~hi:3)

let test_float_bounds () =
  let rng = Prng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let x = Prng.float rng 2.5 in
    check "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_bool_balanced () =
  let rng = Prng.create ~seed:21 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool rng then incr trues
  done;
  check "roughly half true" true (!trues > 4700 && !trues < 5300)

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:31 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle_in_place rng a;
  let b = Array.copy a in
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) b

let test_sample_without_replacement_distinct () =
  let rng = Prng.create ~seed:41 in
  for _ = 1 to 200 do
    let k = Prng.int rng 20 and extra = Prng.int rng 30 in
    let n = k + extra in
    if n > 0 then begin
      let s = Prng.sample_without_replacement rng ~k ~n in
      Alcotest.(check int) "k values" k (Array.length s);
      (* Ascending as returned: callers keep this order. *)
      for i = 1 to k - 1 do
        check "strictly increasing" true (s.(i - 1) < s.(i))
      done;
      Array.iter (fun v -> check "in range" true (v >= 0 && v < n)) s
    end
  done

let test_sample_full_range () =
  let rng = Prng.create ~seed:43 in
  let s = Prng.sample_without_replacement rng ~k:10 ~n:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole range" (Array.init 10 Fun.id) sorted

let test_sample_without_replacement_uniform () =
  (* Each element of [0,6) should appear in a 3-subset w.p. 1/2. *)
  let rng = Prng.create ~seed:47 in
  let hits = Array.make 6 0 in
  let n = 20_000 in
  for _ = 1 to n do
    Array.iter (fun v -> hits.(v) <- hits.(v) + 1) (Prng.sample_without_replacement rng ~k:3 ~n:6)
  done;
  Array.iter (fun c -> check "close to n/2" true (abs (c - (n / 2)) < n / 20)) hits

let test_binomial_support () =
  let rng = Prng.create ~seed:51 in
  for _ = 1 to 5000 do
    let v = Binomial.sample rng ~trials:20 ~p:0.3 in
    check "0 <= v <= trials" true (v >= 0 && v <= 20)
  done

let test_binomial_mean () =
  let rng = Prng.create ~seed:53 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Binomial.sample rng ~trials:20 ~p:0.3
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* True mean 6, sd of the estimate ≈ 0.009. *)
  check "mean near 6" true (abs_float (mean -. 6.0) < 0.1)

let test_binomial_extremes () =
  let rng = Prng.create ~seed:57 in
  Alcotest.(check int) "p=0" 0 (Binomial.sample rng ~trials:10 ~p:0.0);
  Alcotest.(check int) "p=1" 10 (Binomial.sample rng ~trials:10 ~p:1.0);
  Alcotest.(check int) "trials=0" 0 (Binomial.sample rng ~trials:0 ~p:0.5)

let test_binomial_mean_interface () =
  let rng = Prng.create ~seed:59 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Binomial.sample_mean rng ~mean:5.0 ~trials:24
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check "mean near 5" true (abs_float (mean -. 5.0) < 0.1)

let test_binomial_high_p_symmetry () =
  let rng = Prng.create ~seed:61 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Binomial.sample rng ~trials:10 ~p:0.8
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check "mean near 8" true (abs_float (mean -. 8.0) < 0.1)

(* Oracle: every stream equals the record-based generator's
   ([Prng_reference]) draw for draw.  One script of random operations runs
   on both generators; after each, the outputs and the next raw word must
   agree.  Floats are compared by their bits. *)
module R = Prng_reference

let stream_oracle_prop =
  QCheck.Test.make ~name:"streams = reference, draw for draw" ~count:300
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let script = Random.State.make [| seed |] in
      let pick n = Random.State.int script n in
      let a = Prng.create ~seed:(seed - 500_000_000) in
      let b = R.create ~seed:(seed - 500_000_000) in
      let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
      let same_word a b =
        let x = Prng.next_int64 a and y = R.next_int64 b in
        x = y || fail "next_int64 %Lx <> %Lx" x y
      in
      let bound () =
        match pick 5 with
        | 0 -> 1 lsl pick 62
        | 1 -> (2 * pick 1_000_000) + 1
        | 2 -> (1 lsl 61) + 1 + pick 1_000_000
        | 3 -> max_int - pick 1000
        | _ -> 1 + pick 10_000
      in
      let step () =
        match pick 12 with
        | 0 -> same_word a b
        | 1 ->
            let n = bound () in
            let x = Prng.int a n and y = R.int b n in
            x = y || fail "int %d: %d <> %d" n x y
        | 2 ->
            let lo = pick 2001 - 1000 in
            let hi = lo + pick 1000 in
            Prng.int_in_range a ~lo ~hi = R.int_in_range b ~lo ~hi || fail "int_in_range"
        | 3 ->
            let bound = [| 1.0; 2.5; 1e-300; 1e300; Random.State.float script 100.0 |].(pick 5) in
            Int64.bits_of_float (Prng.float a bound) = Int64.bits_of_float (R.float b bound)
            || fail "float %h" bound
        | 4 ->
            let x = Float.of_int (Prng.bits53 a) *. 0x1p-53 in
            Int64.bits_of_float x = Int64.bits_of_float (R.float b 1.0) || fail "bits53"
        | 5 -> Prng.bool a = R.bool b || fail "bool"
        | 6 ->
            let a' = Prng.copy a and b' = R.copy b in
            ignore (Prng.next_int64 a');
            ignore (R.next_int64 b');
            same_word a' b' && same_word a b
        | 7 ->
            let a' = Prng.split a and b' = R.split b in
            same_word a' b' && same_word a b
        | 8 ->
            let n = pick 50 in
            let xa = Array.init n Fun.id in
            let xb = Array.copy xa in
            Prng.shuffle_in_place a xa;
            R.shuffle_in_place b xb;
            xa = xb || fail "shuffle_in_place %d" n
        | 9 ->
            let n = pick 200 in
            let k = pick (n + 1) in
            Prng.sample_without_replacement a ~k ~n = R.sample_without_replacement b ~k ~n
            || fail "sample_without_replacement k=%d n=%d" k n
        | 10 ->
            let n = 1 + pick 200 and k = pick 50 in
            Prng.sample_with_replacement a ~k ~n = R.sample_with_replacement b ~k ~n
            || fail "sample_with_replacement k=%d n=%d" k n
        | _ ->
            let n = bound () in
            let ok = ref true in
            for _ = 1 to 64 do
              if Prng.int a n <> R.int b n then ok := false
            done;
            !ok || fail "int burst %d" n
      in
      let ok = ref true in
      for _ = 1 to 200 do
        if !ok then ok := step ()
      done;
      !ok && same_word a b)

(* The reference pinned in turn, so that it cannot drift with the library. *)
let test_reference_literals () =
  let first3 seed =
    let r = R.create ~seed in
    List.init 3 (fun _ -> R.next_int64 r)
  in
  Alcotest.(check (list int64))
    "seed 0"
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L ]
    (first3 0);
  Alcotest.(check (list int64))
    "seed 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L ]
    (first3 42)

(* Allocation pins: a draw reads the state in place and allocates nothing
   (the record-based generator boxed every state word: 27 minor words per
   [int 640], 23 per [float]).  A [float] that is not inlined still boxes its
   result, as every call across modules does in a build with -opaque. *)
let minor_words_per_call n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

let test_draws_allocate_nothing () =
  let rng = Prng.create ~seed:1 in
  let n = 100_000 and sink = ref 0 in
  let zero name f = Alcotest.(check (float 0.0)) name 0.0 (minor_words_per_call n f) in
  zero "int 640" (fun () ->
      for _ = 1 to n do
        sink := !sink + Prng.int rng 640
      done);
  zero "int 1024" (fun () ->
      for _ = 1 to n do
        sink := !sink + Prng.int rng 1024
      done);
  zero "bits53" (fun () ->
      for _ = 1 to n do
        sink := !sink + Prng.bits53 rng
      done);
  zero "bool" (fun () ->
      for _ = 1 to n do
        if Prng.bool rng then incr sink
      done);
  let float_words =
    minor_words_per_call n (fun () ->
        for _ = 1 to n do
          if Prng.float rng 1.0 < 0.5 then incr sink
        done)
  in
  check "float: at most its boxed result" true (float_words <= 2.0);
  ignore (Sys.opaque_identity !sink)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int covers all values" `Quick test_int_covers_all_values;
    Alcotest.test_case "int roughly uniform" `Quick test_int_roughly_uniform;
    Alcotest.test_case "int_in_range" `Quick test_int_in_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sampling w/o replacement: distinct" `Quick test_sample_without_replacement_distinct;
    Alcotest.test_case "sampling w/o replacement: full range" `Quick test_sample_full_range;
    Alcotest.test_case "sampling w/o replacement: uniform" `Quick test_sample_without_replacement_uniform;
    Alcotest.test_case "binomial support" `Quick test_binomial_support;
    Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
    Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
    Alcotest.test_case "binomial sample_mean" `Quick test_binomial_mean_interface;
    Alcotest.test_case "binomial p>1/2 path" `Quick test_binomial_high_p_symmetry;
    QCheck_alcotest.to_alcotest stream_oracle_prop;
    Alcotest.test_case "reference literals" `Quick test_reference_literals;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
  ]
