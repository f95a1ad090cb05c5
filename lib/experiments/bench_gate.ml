(* Benchmark-regression gate: median/MAD tolerance bands per benchmark
   group, against a committed baseline file.

   The paper's evaluation is about where time goes, and its stated validity
   threat is dishonest timing — so the trajectory of our own runtimes needs
   a gate, or a regression in (say) Hopcroft–Karp's phase structure lands
   silently.  The design picks robustness over sensitivity, because the
   gate must hold on noisy shared CI runners:

   - a {e sample} is the wall time of [reps] back-to-back runs of the
     workload ([reps] is chosen once, when the baseline is written, so one
     sample lasts ~[target_s] and the baseline and every later check time
     the identical workload);
   - every sample is timed right after its own run of a fixed CPU-bound
     calibration loop and rescaled by that run, to the median calibration
     of the whole measurement: a neighbouring process that slows a batch
     slows the calibration run just before it by the same factor, so its
     load cancels out of the sample instead of widening the band;
   - a group is summarized by the {e median} of its samples and their
     {e MAD} (median absolute deviation) — both immune to the occasional
     preempted sample;
   - the check passes while [now_median <= scale * (rel * median + mad_k *
     mad) + abs_floor], where [scale] is the ratio of the median
     calibration now vs. at baseline-write time (clamped), so a uniformly
     slower/faster machine does not move the verdict — only a change in
     the benchmarked code relative to the machine does.

   The bands are deliberately loose: a genuine 3x slowdown always trips
   them (3 > rel = 1.75 with calibration cancelled out), scheduling jitter
   does not. *)

type group = {
  g_name : string;
  g_reps : int;
  g_median_s : float;
  g_mad_s : float;
  g_samples : int;
}

type baseline = { b_calib_s : float; b_groups : group list }

(* ---------- robust statistics ---------- *)

let median_mad xs =
  if Array.length xs = 0 then invalid_arg "Bench_gate.median_mad: empty";
  let med = Ds.Stats.median xs in
  let dev = Array.map (fun x -> Float.abs (x -. med)) xs in
  (med, Ds.Stats.median dev)

(* ---------- measurement ---------- *)

(* Fixed CPU-bound loop (~tens of ms): its runtime moves with the machine,
   not with the benchmarked code, which is exactly what the scale factor
   needs.  [opaque_identity] keeps the loop from being optimized away. *)
let calibrate () =
  let acc = ref 0.0 in
  let _, dt =
    Obs.Span.time_s (fun () ->
        for i = 1 to 8_000_000 do
          acc := !acc +. sqrt (float_of_int i)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  dt

let default_samples = 5
let default_target_s = 0.02

(* Repetition count so one timed batch lasts about [default_target_s]. *)
let reps_for run =
  (* Warm up once (allocation, caches), then estimate a single run. *)
  run ();
  let _, once = Obs.Span.time_s run in
  if once <= 0.0 then 1024
  else max 1 (min 100_000 (int_of_float (Float.ceil (default_target_s /. once))))

(* [samples] pairs: a calibration run, then the duration of a batch of
   [reps] back-to-back runs timed right after it. *)
let measure ~samples ~reps run =
  Array.init samples (fun _ ->
      let calib = calibrate () in
      let _, dt =
        Obs.Span.time_s (fun () ->
            for _ = 1 to reps do
              run ()
            done)
      in
      (calib, dt))

(* The median calibration of a whole measurement, and per group the
   median/MAD of its batches, each rescaled from its own calibration run
   to that median. *)
let summarize measured =
  let calibs = Array.concat (List.map (fun (_, samples) -> Array.map fst samples) measured) in
  let calib = if calibs = [||] then calibrate () else Ds.Stats.median calibs in
  ( calib,
    List.map
      (fun (name, samples) -> (name, median_mad (Array.map (fun (c, dt) -> dt *. calib /. c) samples)))
      measured )

let baseline_of_workloads ?(samples = 2 * default_samples - 1) workloads =
  let measured =
    List.map
      (fun (name, run) ->
        let reps = reps_for run in
        (name, reps, measure ~samples ~reps run))
      workloads
  in
  let calib, summaries = summarize (List.map (fun (name, _, m) -> (name, m)) measured) in
  let groups =
    List.map2
      (fun (name, reps, _) (_, (med, mad)) ->
        { g_name = name; g_reps = reps; g_median_s = med; g_mad_s = mad; g_samples = samples })
      measured summaries
  in
  { b_calib_s = calib; b_groups = groups }

(* ---------- baseline file IO (JSON lines through Obs.Json) ---------- *)

let write_baseline path b =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line json = output_string oc (Obs.Json.to_string json ^ "\n") in
      line
        (Obs.Json.Obj
           [ ("type", Obs.Json.Str "meta"); ("calib_s", Obs.Json.Num b.b_calib_s) ]);
      List.iter
        (fun g ->
          line
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.Str "group");
                 ("group", Obs.Json.Str g.g_name);
                 ("reps", Obs.Json.Num (float_of_int g.g_reps));
                 ("median_s", Obs.Json.Num g.g_median_s);
                 ("mad_s", Obs.Json.Num g.g_mad_s);
                 ("samples", Obs.Json.Num (float_of_int g.g_samples));
               ]))
        b.b_groups)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let num_field name json =
  match Obs.Json.member name json with
  | Some j -> (
      match Obs.Json.to_float j with
      | Some f -> f
      | None -> failwith (Printf.sprintf "Bench_gate: field %S is not a number" name))
  | None -> failwith (Printf.sprintf "Bench_gate: missing field %S" name)

let str_field name json =
  match Option.bind (Obs.Json.member name json) Obs.Json.to_str with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Bench_gate: missing field %S" name)

let load_baseline path =
  let calib = ref None and groups = ref [] in
  List.iter
    (fun line ->
      let json = Obs.Json.of_string line in
      match str_field "type" json with
      | "meta" -> calib := Some (num_field "calib_s" json)
      | "group" ->
          groups :=
            {
              g_name = str_field "group" json;
              g_reps = int_of_float (num_field "reps" json);
              g_median_s = num_field "median_s" json;
              g_mad_s = num_field "mad_s" json;
              g_samples = int_of_float (num_field "samples" json);
            }
            :: !groups
      | other -> failwith (Printf.sprintf "Bench_gate: unknown row type %S" other))
    (read_lines path);
  match !calib with
  | None -> failwith (Printf.sprintf "Bench_gate: %s has no meta row" path)
  | Some c ->
      if !groups = [] then failwith (Printf.sprintf "Bench_gate: %s has no groups" path);
      { b_calib_s = c; b_groups = List.rev !groups }

(* ---------- the check ---------- *)

type verdict = {
  v_group : string;
  v_baseline_s : float;
  v_now_s : float;
  v_limit_s : float;
  v_regressed : bool;
}

(* Band parameters (see header): an honest 3x slowdown always exceeds
   [rel]; the MAD term absorbs group-specific jitter recorded at baseline
   time; the absolute floor forgives sub-resolution differences. *)
let rel = 1.75
let mad_k = 10.0
let abs_floor_s = 0.005
let min_scale = 0.25
let max_scale = 4.0

let limit_for b ~calib_now g =
  let scale = Float.min max_scale (Float.max min_scale (calib_now /. b.b_calib_s)) in
  (scale *. ((rel *. g.g_median_s) +. (mad_k *. g.g_mad_s))) +. abs_floor_s

let check_medians ?(slowdown = 1.0) b ~calib_now now_medians =
  List.map
    (fun g ->
      let limit = limit_for b ~calib_now g in
      match List.assoc_opt g.g_name now_medians with
      | None ->
          (* A group the baseline knows but the current run did not measure
             is a gate-integrity failure, not a pass. *)
          { v_group = g.g_name; v_baseline_s = g.g_median_s; v_now_s = Float.nan;
            v_limit_s = limit; v_regressed = true }
      | Some now ->
          let now = now *. slowdown in
          { v_group = g.g_name; v_baseline_s = g.g_median_s; v_now_s = now;
            v_limit_s = limit; v_regressed = now > limit })
    b.b_groups

let check ?slowdown ?(samples = default_samples) b workloads =
  let calib_now, summaries =
    summarize
      (List.filter_map
         (fun g ->
           Option.map (fun run -> (g.g_name, measure ~samples ~reps:g.g_reps run)) (List.assoc_opt g.g_name workloads))
         b.b_groups)
  in
  (check_medians ?slowdown b ~calib_now (List.map (fun (name, (med, _)) -> (name, med)) summaries), calib_now)

let all_pass = List.for_all (fun v -> not v.v_regressed)

let render verdicts =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %12s %12s %12s  %s\n" "group" "baseline" "now" "limit" "verdict");
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %10.2fms %10.2fms %10.2fms  %s\n" v.v_group
           (1e3 *. v.v_baseline_s) (1e3 *. v.v_now_s) (1e3 *. v.v_limit_s)
           (if v.v_regressed then "REGRESSED" else "ok")))
    verdicts;
  Buffer.contents buf

(* ---------- trajectory ---------- *)

(* One JSON line appended per successful gate run: the BENCH trajectory is
   a growing record of "how fast was this tree on this machine, when",
   suitable for plotting or for promoting into the next baseline. *)
let append_trajectory path ~calib_s verdicts =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row =
        Obs.Json.Obj
          [
            ("type", Obs.Json.Str "trajectory");
            ("unix_ts", Obs.Json.Num (Unix.gettimeofday ()));
            ("calib_s", Obs.Json.Num calib_s);
            ( "groups",
              Obs.Json.Obj
                (List.map
                   (fun v ->
                     ( v.v_group,
                       Obs.Json.Obj
                         [
                           ("now_s", Obs.Json.Num v.v_now_s);
                           ("baseline_s", Obs.Json.Num v.v_baseline_s);
                         ] ))
                   verdicts) );
          ]
      in
      output_string oc (Obs.Json.to_string row ^ "\n"))
