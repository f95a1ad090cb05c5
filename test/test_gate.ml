(* The benchmark-regression gate: the median/MAD tolerance bands must pass
   identical timings, catch a 3x slowdown, scale with the CPU calibration
   ratio, and survive the baseline/trajectory file round trip. *)

module Gate = Experiments.Bench_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_group ?(mad = 0.001) name median =
  { Gate.g_name = name; g_reps = 100; g_median_s = median; g_mad_s = mad; g_samples = 5 }

let mk_baseline ?(calib = 0.05) groups = { Gate.b_calib_s = calib; b_groups = groups }

let test_median_mad () =
  let med, mad = Gate.median_mad [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "median" 2.0 med;
  Alcotest.(check (float 1e-9)) "mad" 1.0 mad;
  let med, mad = Gate.median_mad [| 5.0 |] in
  Alcotest.(check (float 1e-9)) "singleton median" 5.0 med;
  Alcotest.(check (float 1e-9)) "singleton mad" 0.0 mad;
  check "empty raises"
    (match Gate.median_mad [||] with exception Invalid_argument _ -> true | _ -> false)
    true

let test_identical_times_pass () =
  let b = mk_baseline [ mk_group "a" 0.020; mk_group "b" 0.030 ] in
  let verdicts =
    Gate.check_medians b ~calib_now:b.Gate.b_calib_s [ ("a", 0.020); ("b", 0.030) ]
  in
  check_int "one verdict per group" 2 (List.length verdicts);
  check "identical timings pass" (Gate.all_pass verdicts) true

let test_3x_slowdown_fails () =
  let b = mk_baseline [ mk_group "a" 0.020; mk_group "b" 0.030 ] in
  (* Directly 3x slower... *)
  let direct = Gate.check_medians b ~calib_now:b.Gate.b_calib_s [ ("a", 0.060); ("b", 0.030) ] in
  check "3x group regresses" (not (Gate.all_pass direct)) true;
  check "healthy group still passes"
    (not (List.find (fun v -> v.Gate.v_group = "b") direct).Gate.v_regressed)
    true;
  (* ...and via the injection hook the CI dry-run uses. *)
  let injected =
    Gate.check_medians ~slowdown:3.0 b ~calib_now:b.Gate.b_calib_s
      [ ("a", 0.020); ("b", 0.030) ]
  in
  check "injected 3x slowdown trips every group"
    (List.for_all (fun v -> v.Gate.v_regressed) injected)
    true

let test_calibration_scaling () =
  let b = mk_baseline ~calib:0.05 [ mk_group "a" 0.020 ] in
  (* A machine running the calibration loop 2x slower widens the band: the
     same 3x wall-time ratio is a regression at ratio 1 but not at 2. *)
  let fast = Gate.check_medians b ~calib_now:0.05 [ ("a", 0.060) ] in
  check "3x regresses on the same machine" (not (Gate.all_pass fast)) true;
  let slow_machine = Gate.check_medians b ~calib_now:0.10 [ ("a", 0.060) ] in
  check "3x passes when the machine is 2x slower" (Gate.all_pass slow_machine) true;
  (* The scale ratio is clamped: an absurd calibration cannot wash out a
     real regression forever. *)
  let clamped = Gate.check_medians b ~calib_now:5.0 [ ("a", 1.0) ] in
  check "clamp keeps huge slowdowns failing" (not (Gate.all_pass clamped)) true

let test_missing_group_fails () =
  let b = mk_baseline [ mk_group "a" 0.020; mk_group "gone" 0.030 ] in
  let verdicts = Gate.check_medians b ~calib_now:b.Gate.b_calib_s [ ("a", 0.020) ] in
  let gone = List.find (fun v -> v.Gate.v_group = "gone") verdicts in
  check "unmeasured baseline group regresses" gone.Gate.v_regressed true;
  check "its now-time is nan" (Float.is_nan gone.Gate.v_now_s) true;
  check "gate fails overall" (not (Gate.all_pass verdicts)) true

let with_temp_file suffix f =
  let path = Filename.temp_file "semimatch_gate" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_baseline_roundtrip () =
  let b =
    mk_baseline ~calib:0.0671
      [ mk_group ~mad:0.0003 "FG/SGH" 0.0212; mk_group ~mad:0.0011 "FG/exact-dfs" 0.0274 ]
  in
  with_temp_file ".json" (fun path ->
      Gate.write_baseline path b;
      let b' = Gate.load_baseline path in
      check "calibration survives" (b'.Gate.b_calib_s = b.Gate.b_calib_s) true;
      check "groups survive" (b'.Gate.b_groups = b.Gate.b_groups) true)

let test_trajectory_append () =
  let b = mk_baseline [ mk_group "a" 0.020 ] in
  let verdicts = Gate.check_medians b ~calib_now:0.05 [ ("a", 0.021) ] in
  with_temp_file ".json" (fun path ->
      Sys.remove path;
      Gate.append_trajectory path ~calib_s:0.05 verdicts;
      Gate.append_trajectory path ~calib_s:0.06 verdicts;
      let ic = open_in path in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
            in
            go [])
      in
      check_int "one row per append" 2 (List.length lines);
      List.iter
        (fun line ->
          let json = Obs.Json.of_string line in
          check "row type is trajectory"
            (Obs.Json.member "type" json = Some (Obs.Json.Str "trajectory"))
            true;
          check "row records the group"
            (match Obs.Json.member "groups" json with
            | Some (Obs.Json.Obj [ ("a", _) ]) -> true
            | _ -> false)
            true)
        lines)

(* The live pipeline on real workloads: write a baseline, re-check it —
   identical code passes, an injected 3x slowdown exits via the failing
   verdict.  This is the in-process version of the CI dry-run.  Both
   workloads are the calibration loop itself: every sample is rescaled by
   that same loop, so the rescaled median sits at the calibration median
   wherever the code lands in the binary.  A workload loop of its own can
   run at two speeds depending on where it lands, and a slow baseline
   phase then lets the injected 3x pass. *)
let test_live_gate_roundtrip () =
  let calib label = (label, fun () -> ignore (Gate.calibrate () : float)) in
  let workloads = [ calib "calib.a"; calib "calib.b" ] in
  let b = Gate.baseline_of_workloads ~samples:3 workloads in
  check_int "baseline covers the workloads" 2 (List.length b.Gate.b_groups);
  let verdicts, _calib = Gate.check ~samples:3 b workloads in
  check "unchanged code passes" (Gate.all_pass verdicts) true;
  let slowed, _calib = Gate.check ~slowdown:3.0 ~samples:3 b workloads in
  check "injected 3x slowdown fails" (not (Gate.all_pass slowed)) true

let suite =
  [
    Alcotest.test_case "median/MAD math" `Quick test_median_mad;
    Alcotest.test_case "identical timings pass" `Quick test_identical_times_pass;
    Alcotest.test_case "3x slowdown fails" `Quick test_3x_slowdown_fails;
    Alcotest.test_case "calibration scales the bands" `Quick test_calibration_scaling;
    Alcotest.test_case "missing group fails the gate" `Quick test_missing_group_fails;
    Alcotest.test_case "baseline file round-trips" `Quick test_baseline_roundtrip;
    Alcotest.test_case "trajectory rows append" `Quick test_trajectory_append;
    Alcotest.test_case "live gate round-trip" `Quick test_live_gate_roundtrip;
  ]
