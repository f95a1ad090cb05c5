(* The bench harness: a seconds-scale telemetry smoke, the multicore
   acceptance check, and the benchmark-regression gate.

     dune exec bench/main.exe -- --smoke            # telemetry smoke (runtest)
     dune exec bench/main.exe -- --smoke --jobs 2   # + parallel check (runtest)

   Quality numbers — the table contents — come from bin/experiments_main.exe;
   per-operation, per-layer timings come from perfbench/run.py.

   --smoke runs a scaled-down grid with Obs telemetry enabled and writes
   BENCH_smoke.json (JSON lines: bench rows + the full metrics snapshot),
   validating every line through Obs.Json; `dune runtest` exercises it so
   the telemetry pipeline cannot rot.  It also exports the recorded spans
   as a Chrome trace (BENCH_trace.json, openable in ui.perfetto.dev).

   The regression gate rides on the same workloads:

     bench --write-baseline --baseline BENCH_baseline.json
     bench --smoke --baseline BENCH_baseline.json --check

   --check re-times every baseline group and fails (exit 1) when a group
   exceeds its median/MAD tolerance band (see Experiments.Bench_gate); on
   success it appends one row to BENCH_trajectory.json.  The undocumented
   --slowdown X flag multiplies the measured medians — the CI dry-run uses
   it to prove an injected 3x regression actually trips the gate.

   Any other invocation (no mode, an unknown argument, a --jobs or
   --slowdown value that is not a positive number) prints a one-line usage
   to stderr and exits 2. *)

module Gh = Semimatch.Greedy_hyper

let find_spec name =
  List.find (fun s -> s.Experiments.Instances.name = name) (Experiments.Instances.paper_grid ())

let find_sp_spec name =
  List.find
    (fun s -> s.Experiments.Instances.sp_name = name)
    (Experiments.Instances.paper_grid_singleproc ())

(* --smoke: a seconds-scale telemetry exercise run from `dune runtest`.  It
   runs a 1/16-scale slice of the paper grid with Obs enabled, writes every
   result plus the full metrics snapshot to BENCH_smoke.json as JSON lines,
   then re-parses the artifact with Obs.Json to prove the machine format
   round-trips. *)
let smoke_out = "BENCH_smoke.json"
let trace_out = "BENCH_trace.json"

let smoke () =
  Obs.set_enabled true;
  Obs.reset ();
  let buf = Buffer.create 4096 in
  let add_line json =
    Buffer.add_string buf (Obs.Json.to_string json);
    Buffer.add_char buf '\n'
  in
  add_line
    (Obs.Json.Obj
       [
         ("type", Obs.Json.Str "meta");
         ("mode", Obs.Json.Str "smoke");
         ("scale", Obs.Json.Num 16.);
         ("seeds", Obs.Json.Num 2.);
       ]);
  (* Multiprocessor heuristics on one FewgManyg and one HiLo instance. *)
  let specs =
    [
      Experiments.Instances.scaled 16 (find_spec "FG-5-1-MP");
      Experiments.Instances.scaled 16 (find_spec "HLF-5-1-MP");
    ]
  in
  List.iter
    (fun spec ->
      let row = Experiments.Runner.run_row ~seeds:2 ~weights:Hyper.Weights.Unit spec in
      List.iter
        (fun res ->
          add_line
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.Str "bench");
                 ("instance", Obs.Json.Str spec.Experiments.Instances.name);
                 ("algo", Obs.Json.Str (Gh.short_name res.Experiments.Runner.algo));
                 ("ratio", Obs.Json.Num res.Experiments.Runner.ratio);
                 ("time_s", Obs.Json.Num res.Experiments.Runner.time_s);
               ]))
        row.Experiments.Runner.results)
    specs;
  (* Exact unit-weight solver through every engine of the catalogue: the
     three binary searches plus the direct cost-reducing-path solvers. *)
  let sp_spec = Experiments.Instances.scaled_singleproc 16 (find_sp_spec "FG-20-1") in
  let sp = Experiments.Instances.generate_singleproc ~seed:0 sp_spec in
  List.iter
    (fun exact ->
      let name = Semimatch.Exact_unit.exact_engine_name exact in
      let s, dt =
        Experiments.Runner.time_it ~span:("bench.exact-" ^ name) (fun () ->
            Semimatch.Exact_unit.solve_with ~exact sp)
      in
      add_line
        (Obs.Json.Obj
           [
             ("type", Obs.Json.Str "bench");
             ("instance", Obs.Json.Str sp_spec.Experiments.Instances.sp_name);
             ("algo", Obs.Json.Str ("exact-" ^ name));
             ("makespan", Obs.Json.Num (float_of_int s.Semimatch.Exact_unit.makespan));
             ("guarantee",
              Obs.Json.Str
                Semimatch.Exact_unit.(guarantee_name (exact_engine_guarantee exact)));
             ("time_s", Obs.Json.Num dt);
           ]))
    Semimatch.Exact_unit.all_exact_engines;
  (* Streaming tier: the same scaled SINGLEPROC shape as an edge stream,
     solved out of core.  This is the quality-ratio gate: a streamed
     makespan beyond its proven factor of the exact optimum, or solver
     state not beating the CSR it avoided, fails the smoke run. *)
  let stream_path = Filename.temp_file "bench-smoke-stream" ".sms" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove stream_path with Sys_error _ -> ())
    (fun () ->
      let rng = Randkit.Prng.create ~seed:0 in
      let w =
        Hyper.Stream_io.create_writer ~path:stream_path
          ~n1:sp_spec.Experiments.Instances.sp_n ~n2:sp_spec.Experiments.Instances.sp_p ()
      in
      ignore
        (Hyper.Generate.stream_sp rng ~family:Hyper.Generate.Fewg_manyg
           ~n:sp_spec.Experiments.Instances.sp_n ~p:sp_spec.Experiments.Instances.sp_p
           ~g:sp_spec.Experiments.Instances.sp_g ~d:sp_spec.Experiments.Instances.sp_d
           ~emit:(fun ~task ~proc ->
             Hyper.Stream_io.add w ~task ~procs:[| proc |] ~weight:1.0)
          : int);
      Hyper.Stream_io.close_writer w;
      let exact = Stream.Ingest.solve ~threshold_words:max_int stream_path in
      let opt = exact.Stream.Ingest.makespan in
      let csr_words =
        Option.value
          (Hyper.Stream_io.csr_estimate_words exact.Stream.Ingest.header)
          ~default:0
      in
      List.iter
        (fun (name, solver) ->
          let r = Hyper.Stream_io.open_reader stream_path in
          let sol, dt =
            Fun.protect
              ~finally:(fun () -> Hyper.Stream_io.close_reader r)
              (fun () ->
                Experiments.Runner.time_it ~span:("bench.stream-" ^ name) (fun () -> solver r))
          in
          let ratio = sol.Stream.Kr.makespan /. opt in
          if sol.Stream.Kr.makespan > (sol.Stream.Kr.factor *. opt) +. 1e-9 then
            failwith
              (Printf.sprintf
                 "bench --smoke: %s makespan %g beyond its proven factor %g of opt %g" name
                 sol.Stream.Kr.makespan sol.Stream.Kr.factor opt);
          if sol.Stream.Kr.state_words >= csr_words then
            failwith
              (Printf.sprintf
                 "bench --smoke: %s kept %d state words, not below the %d-word CSR it avoided"
                 name sol.Stream.Kr.state_words csr_words);
          add_line
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.Str "stream");
                 ("instance", Obs.Json.Str sp_spec.Experiments.Instances.sp_name);
                 ("algo", Obs.Json.Str name);
                 ("makespan", Obs.Json.Num sol.Stream.Kr.makespan);
                 ("opt", Obs.Json.Num opt);
                 ("ratio", Obs.Json.Num ratio);
                 ("factor", Obs.Json.Num sol.Stream.Kr.factor);
                 ("passes", Obs.Json.Num (float_of_int sol.Stream.Kr.passes));
                 ("state_words", Obs.Json.Num (float_of_int sol.Stream.Kr.state_words));
                 ("csr_words", Obs.Json.Num (float_of_int csr_words));
                 ("time_s", Obs.Json.Num dt);
               ]))
        [ ("one-pass", Stream.Kr.one_pass); ("few-pass", Stream.Kr.few_pass) ]);
  (* Full telemetry snapshot recorded while the work above ran. *)
  Buffer.add_string buf (Obs.Sink.render ~label:"bench-smoke" Obs.Sink.Json);
  let oc = open_out smoke_out in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  (* Round-trip validation: every line must parse and carry a "type". *)
  let ic = open_in smoke_out in
  let lines = ref 0 and counters = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          incr lines;
          let json = Obs.Json.of_string line in
          (match Obs.Json.(member "type" json) with
          | Some (Obs.Json.Str t) -> if t = "counter" then incr counters
          | _ -> failwith (Printf.sprintf "%s:%d: row without a \"type\"" smoke_out !lines))
        done
      with End_of_file -> ());
  if !lines < 10 then failwith "bench --smoke: suspiciously short artifact";
  if !counters = 0 then failwith "bench --smoke: telemetry snapshot recorded no counters";
  (* The spans recorded during the run above, as a Chrome trace artifact. *)
  Obs.Trace.write_file trace_out;
  Printf.printf
    "bench --smoke: wrote %s (%d JSON lines, %d counters, all parsed back) and %s\n" smoke_out
    !lines !counters trace_out

(* --smoke --jobs J: the multicore acceptance check.  The portfolio grid —
   every solver of [Portfolio.default_solvers] on a batch of scaled paper
   instances — is run once sequentially and once fanned out over J domains
   (one instance per work item, each solved by the full sequential
   portfolio, so the per-instance result cannot depend on scheduling).  The
   two makespan vectors must be byte-identical; the wall-clock ratio is the
   speedup, recorded to BENCH_parallel.json.  On machines with at least 4
   effective cores a J >= 4 run must reach a 2x speedup. *)
let parallel_out = "BENCH_parallel.json"

let parallel_grid () =
  List.concat_map
    (fun name ->
      let spec = Experiments.Instances.scaled 8 (find_spec name) in
      List.init 4 (fun seed ->
          ( Printf.sprintf "%s#%d" spec.Experiments.Instances.name seed,
            Experiments.Instances.generate_multiproc ~seed ~weights:Hyper.Weights.Related spec )))
    [ "FG-5-1-MP"; "HLF-5-1-MP" ]

let run_parallel_grid ~jobs grid =
  let work = Array.of_list grid in
  let makespans, wall_s =
    Obs.Span.time_s (fun () ->
        Parpool.Pool.map ~jobs
          ~f:(fun (_, h) -> (Semimatch.Portfolio.solve ~jobs:1 h).Semimatch.Portfolio.best_makespan)
          work)
  in
  (Array.to_list makespans, wall_s)

let smoke_parallel jobs =
  let grid = parallel_grid () in
  let seq_makespans, seq_s = run_parallel_grid ~jobs:1 grid in
  let par_makespans, par_s = run_parallel_grid ~jobs grid in
  let render ms = String.concat "," (List.map (Printf.sprintf "%.17g") ms) in
  let identical = render seq_makespans = render par_makespans in
  if not identical then
    failwith
      (Printf.sprintf "bench --smoke --jobs %d: makespans diverged from the sequential run\n1: %s\n%d: %s"
         jobs (render seq_makespans) jobs (render par_makespans));
  let speedup = seq_s /. par_s in
  let cores = Domain.recommended_domain_count () in
  let buf = Buffer.create 1024 in
  let add_line json =
    Buffer.add_string buf (Obs.Json.to_string json);
    Buffer.add_char buf '\n'
  in
  add_line
    (Obs.Json.Obj
       [
         ("type", Obs.Json.Str "meta");
         ("mode", Obs.Json.Str "parallel");
         ("cores", Obs.Json.Num (float_of_int cores));
         ("instances", Obs.Json.Num (float_of_int (List.length grid)));
       ]);
  List.iter2
    (fun (name, _) m ->
      add_line
        (Obs.Json.Obj
           [
             ("type", Obs.Json.Str "makespan");
             ("instance", Obs.Json.Str name);
             ("makespan", Obs.Json.Num m);
           ]))
    grid seq_makespans;
  add_line
    (Obs.Json.Obj
       [ ("type", Obs.Json.Str "run"); ("jobs", Obs.Json.Num 1.); ("wall_s", Obs.Json.Num seq_s) ]);
  add_line
    (Obs.Json.Obj
       [
         ("type", Obs.Json.Str "run");
         ("jobs", Obs.Json.Num (float_of_int jobs));
         ("wall_s", Obs.Json.Num par_s);
       ]);
  add_line
    (Obs.Json.Obj
       [
         ("type", Obs.Json.Str "speedup");
         ("jobs", Obs.Json.Num (float_of_int jobs));
         ("speedup", Obs.Json.Num speedup);
         ("identical_makespans", Obs.Json.Bool identical);
       ]);
  let oc = open_out parallel_out in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf
    "bench --smoke --jobs %d: %d instances, %.3f s sequential, %.3f s parallel (%.2fx), makespans identical; wrote %s\n"
    jobs (List.length grid) seq_s par_s speedup parallel_out;
  if jobs >= 4 && cores >= 4 && speedup < 2.0 then
    failwith
      (Printf.sprintf "bench --smoke --jobs %d: speedup %.2fx below the 2x acceptance bar on a %d-core machine"
         jobs speedup cores)

(* ---------- benchmark-regression gate (Experiments.Bench_gate) ---------- *)

module Gate = Experiments.Bench_gate

let trajectory_out = "BENCH_trajectory.json"

(* Crash-recovery time is gated like solver time: a persist directory with
   a checkpointed session plus a journal suffix of mutations is built once,
   and the thunk times the full restart path — checkpoint load, journal
   decode, replay through the engine, feasibility verify. *)
let gate_recovery_workload () =
  let dir = Filename.temp_file "bench-recovery" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      try
        Array.iter
          (fun n ->
            let p = Filename.concat dir n in
            if Sys.is_directory p then begin
              Array.iter (fun m -> Sys.remove (Filename.concat p m)) (Sys.readdir p);
              Unix.rmdir p
            end
            else Sys.remove p)
          (Sys.readdir dir);
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ());
  let rng = Randkit.Prng.create ~seed:7 in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:200 ~p:32 ~dv:3 ~dh:4
      ~g:4 ~weights:Hyper.Weights.Unit
  in
  let persist, _ = Server.Persist.open_ ~dir ~policy:Server.Journal.Never ~version:"bench" in
  let lb = Server.Loopback.create (Server.Engine.create ~persist ()) in
  let req fields = ignore (Server.Loopback.request lb (Obs.Json.to_string (Obs.Json.Obj fields))) in
  let module J = Obs.Json in
  req [ ("op", J.Str "load"); ("session", J.Str "r"); ("instance", J.Str (Hyper.Io.to_string h)) ];
  req [ ("op", J.Str "checkpoint") ];
  for i = 0 to 49 do
    if i mod 3 = 2 then req [ ("op", J.Str "remove_task"); ("session", J.Str "r"); ("task", J.Num (float_of_int i)) ]
    else
      req
        [
          ("op", J.Str "add_task"); ("session", J.Str "r");
          ("configs",
           J.List
             [
               J.Obj
                 [
                   ("procs", J.List [ J.Num (float_of_int (i mod 32)); J.Num (float_of_int ((i + 7) mod 32)) ]);
                   ("weight", J.Num 1.0);
                 ];
             ]);
        ]
  done;
  (* Close the journal without a final checkpoint, so the thunk replays a
     genuine checkpoint + journal-suffix recovery, not checkpoint-only. *)
  Server.Persist.close persist;
  ( "recovery/ckpt+journal-50",
    fun () ->
      let r = Server.Persist.load dir in
      let engine = Server.Engine.create () in
      ignore (Server.Engine.recover engine r : Server.Engine.recovery_info) )

(* Streaming-tier gates.  The generator-throughput group times producing a
   SINGLEPROC edge stream straight from the generator (no in-core graph);
   the solver groups time the one-/few-pass Konrad–Rosén solvers over the
   file the first group wrote.  Pre-written once so the solver thunks time
   pure streaming, not generation.  Every write goes to a new file: ext4
   forces a truncated-and-rewritten file to disk at close (auto_da_alloc),
   which would time the disk instead of the writer, and the gate's
   calibration scales CPU speed only. *)
let gate_stream_workloads () =
  let path = Filename.temp_file "bench-stream" ".sms" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let write () =
    (try Sys.remove path with Sys_error _ -> ());
    let rng = Randkit.Prng.create ~seed:3 in
    let w = Hyper.Stream_io.create_writer ~path ~n1:4000 ~n2:250 () in
    ignore
      (Hyper.Generate.stream_sp rng ~family:Hyper.Generate.Fewg_manyg ~n:4000 ~p:250 ~g:10
         ~d:5 ~emit:(fun ~task ~proc ->
           Hyper.Stream_io.add w ~task ~procs:[| proc |] ~weight:1.0)
        : int);
    Hyper.Stream_io.close_writer w
  in
  write ();
  let solve f () =
    let r = Hyper.Stream_io.open_reader path in
    Fun.protect
      ~finally:(fun () -> Hyper.Stream_io.close_reader r)
      (fun () -> ignore (f r : Stream.Kr.solution))
  in
  [
    ("stream/gen-sp-write-4000x250", write);
    ("stream/one-pass-4000x250", solve Stream.Kr.one_pass);
    ("stream/few-pass-4000x250", solve Stream.Kr.few_pass);
  ]

(* The gated workloads mirror the smoke groups: the two scaled paper
   instances through every multiprocessor heuristic, plus the exact solver
   through each matching engine.  Instances are generated up front so the
   thunks time pure solving. *)
let gate_workloads () =
  let heuristics =
    List.concat_map
      (fun name ->
        let spec = Experiments.Instances.scaled 16 (find_spec name) in
        let h = Experiments.Instances.generate_multiproc ~seed:0 ~weights:Hyper.Weights.Unit spec in
        List.map
          (fun algo ->
            ( Printf.sprintf "%s/%s" spec.Experiments.Instances.name (Gh.short_name algo),
              fun () -> ignore (Gh.run algo h) ))
          Gh.all)
      [ "FG-5-1-MP"; "HLF-5-1-MP" ]
  in
  let sp_spec = Experiments.Instances.scaled_singleproc 16 (find_sp_spec "FG-20-1") in
  let sp = Experiments.Instances.generate_singleproc ~seed:0 sp_spec in
  let exact =
    List.map
      (fun exact ->
        ( Printf.sprintf "%s/exact-%s" sp_spec.Experiments.Instances.sp_name
            (Semimatch.Exact_unit.exact_engine_name exact),
          fun () -> ignore (Semimatch.Exact_unit.solve_with ~exact sp) ))
      Semimatch.Exact_unit.all_exact_engines
  in
  heuristics @ exact @ [ gate_recovery_workload () ] @ gate_stream_workloads ()

let gate_write_baseline path =
  (* Telemetry off: the gate times un-instrumented code, and must do so
     identically at baseline-write and check time. *)
  Obs.set_enabled false;
  let b = Gate.baseline_of_workloads (gate_workloads ()) in
  Gate.write_baseline path b;
  Printf.printf "bench --write-baseline: wrote %s (%d groups, calib %.1fms)\n" path
    (List.length b.Gate.b_groups) (1e3 *. b.Gate.b_calib_s)

let gate_check ?slowdown path =
  Obs.set_enabled false;
  let b =
    (* Unreadable or malformed baseline: one-line error, exit 2, no
       backtrace — same contract as the CLI's user-error paths. *)
    try Gate.load_baseline path with
    | Sys_error msg | Failure msg ->
        Printf.eprintf "bench: cannot load baseline %s: %s\n" path msg;
        exit 2
  in
  let verdicts, calib_s = Gate.check ?slowdown b (gate_workloads ()) in
  print_string (Gate.render verdicts);
  if Gate.all_pass verdicts then begin
    Gate.append_trajectory trajectory_out ~calib_s verdicts;
    Printf.printf "bench --check: %d groups within tolerance of %s; appended %s\n"
      (List.length verdicts) path trajectory_out
  end
  else begin
    Printf.eprintf "bench --check: benchmark regression against %s (see table above)\n" path;
    exit 1
  end

(* ---------- argv (this is not a cmdliner binary) ---------- *)

let usage =
  "usage: main.exe [--smoke [--jobs N]] [--check [--slowdown X] | --write-baseline] \
   [--baseline FILE]"

let bad_invocation fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s; %s\n" msg usage;
      exit 2)
    fmt

let () =
  let want_smoke = ref false and want_check = ref false and want_write = ref false in
  let jobs = ref None and baseline = ref None and slowdown = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> want_smoke := true; parse rest
    | "--check" :: rest -> want_check := true; parse rest
    | "--write-baseline" :: rest -> want_write := true; parse rest
    | "--baseline" :: v :: rest -> baseline := Some v; parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> jobs := Some j
        | _ -> bad_invocation "--jobs wants a positive integer, not %S" v);
        parse rest
    | "--slowdown" :: v :: rest ->
        (match float_of_string_opt v with
        | Some x when x > 0.0 -> slowdown := Some x
        | _ -> bad_invocation "--slowdown wants a positive number, not %S" v);
        parse rest
    | [ ("--baseline" | "--jobs" | "--slowdown") as a ] -> bad_invocation "%s needs a value" a
    | a :: _ -> bad_invocation "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (!want_smoke || !want_check || !want_write) then
    bad_invocation "nothing to do: give --smoke, --check or --write-baseline";
  let require_baseline what =
    match !baseline with
    | Some path -> path
    | None ->
        Printf.eprintf "bench %s requires --baseline FILE\n" what;
        exit 2
  in
  if !want_write then gate_write_baseline (require_baseline "--write-baseline")
  else begin
    if !want_smoke then begin
      smoke ();
      Option.iter smoke_parallel !jobs
    end;
    if !want_check then gate_check ?slowdown:!slowdown (require_baseline "--check")
  end
