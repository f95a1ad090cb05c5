(* Command-line front end: generate, inspect and solve MULTIPROC instances
   stored in the Hyper.Io text format.

     semimatch_cli gen --family fewg --n 1280 --p 256 -o inst.hg
     semimatch_cli info inst.hg
     semimatch_cli solve --algorithm evg --refine inst.hg
     semimatch_cli profile --stats=json inst.hg
     semimatch_cli exact inst.hg       # singleton unit instances only *)

open Cmdliner

module Gh = Semimatch.Greedy_hyper
module Faults = Semimatch.Faults

(* Error-path contract: user mistakes (bad file, bad spec, unwritable
   output) print one line on stderr and exit 2 — never a backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("semimatch_cli: " ^ msg);
      exit 2)
    fmt

let load_instance file =
  try Hyper.Io.load file with
  | Sys_error msg -> die "%s" msg
  | Failure msg -> die "%s" msg
  | Invalid_argument msg -> die "invalid instance %s: %s" file msg

let save_instance file h =
  try Hyper.Io.save file h with Sys_error msg -> die "%s" msg

let write_trace path =
  (try Obs.Trace.write_file path with Sys_error msg -> die "%s" msg);
  Printf.eprintf "wrote Chrome trace to %s (open in ui.perfetto.dev)\n" path

let parse_faults spec = try Faults.of_string spec with Failure msg -> die "%s" msg

let degradation_for h plan =
  try Faults.degradation plan ~p:h.Hyper.Graph.n2 with Failure msg -> die "%s" msg

let family_conv =
  Arg.enum [ ("fewg", Hyper.Generate.Fewg_manyg); ("hilo", Hyper.Generate.Hilo) ]

(* --stats[=table|json|csv]: enable the Obs probes for the command and
   append a telemetry report to stdout. *)
let stats_conv =
  Arg.enum [ ("table", Obs.Sink.Table); ("json", Obs.Sink.Json); ("csv", Obs.Sink.Csv) ]

let stats_arg =
  Arg.(value
       & opt ~vopt:(Some Obs.Sink.Table) (some stats_conv) None
       & info [ "stats" ] ~docv:"FMT"
           ~doc:"Enable telemetry probes and append a metrics report (table, json or csv).")

(* A domain count or a wall-clock budget of zero or less (or nan) is a
   usage error, reported before any work starts; [inf] is a positive
   budget, no deadline at all. *)
let positive of_string zero pp kind =
  let parse s =
    match of_string s with
    | Some x when x > zero -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive %s" s kind))
  in
  Arg.conv (parse, pp)

let positive_int = positive int_of_string_opt 0 Format.pp_print_int "integer"
let positive_float = positive float_of_string_opt 0.0 Format.pp_print_float "number"

let jobs_arg =
  Arg.(value & opt positive_int 1
       & info [ "jobs"; "j" ] ~docv:"J"
           ~doc:"Number of domains to run on (default 1: sequential).")

(* --trace FILE: export the spans/events recorded during the command as a
   Chrome trace-event file (one track per domain, flow arrows linking pool
   submission to execution). *)
let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Enable telemetry and write a Chrome trace-event file; open it at \
              $(b,ui.perfetto.dev) (or chrome://tracing).")

(* --events[=text|json]: print the structured event log after the run. *)
let events_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let events_arg =
  Arg.(value
       & opt ~vopt:(Some `Text) (some events_conv) None
       & info [ "events" ] ~docv:"FMT"
           ~doc:
             "Enable telemetry and print the structured event log (incumbents, cutoffs, \
              phases...) as text or json lines.")

(* Every telemetry surface shares one switch: any of --stats / --trace /
   --events enables the probes; each then renders its own view of the run. *)
let with_telemetry ?(trace = None) ?(events = None) stats f =
  if stats = None && trace = None && events = None then f ()
  else begin
    Obs.set_enabled true;
    Obs.reset ();
    let result = f () in
    (match stats with
    | None -> ()
    | Some fmt ->
        print_newline ();
        Obs.Sink.emit fmt);
    (match events with
    | None -> ()
    | Some `Text ->
        print_newline ();
        print_string (Obs.Events.render_text ())
    | Some `Json ->
        print_newline ();
        print_string (Obs.Events.render_jsonl ()));
    (match trace with
    | None -> ()
    | Some path ->
        write_trace path);
    result
  end

let with_stats stats f = with_telemetry stats f

let weights_conv =
  Arg.enum
    [
      ("unit", Hyper.Weights.Unit);
      ("related", Hyper.Weights.Related);
      ("random", Hyper.Weights.default_random);
    ]

let algorithm_conv =
  Arg.enum
    [
      ("sgh", Gh.Sorted_greedy_hyp);
      ("egh", Gh.Expected_greedy_hyp);
      ("vgh", Gh.Vector_greedy_hyp);
      ("evg", Gh.Expected_vector_greedy_hyp);
    ]

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

(* gen --stream-out: emit straight to the binary edge-stream format through
   the streaming generators — the in-core graph never exists, so the
   instance size is bounded by disk, not RAM. *)
let stream_out_arg =
  Arg.(value & opt (some string) None
       & info [ "stream-out" ] ~docv:"FILE"
           ~doc:
             "Also/instead write a binary edge stream, emitted directly from the generator \
              without building the in-core graph (use alone for instances bigger than RAM).")

let with_stream_writer path ~n1 ~n2 f =
  let w =
    try Hyper.Stream_io.create_writer ~path ~n1 ~n2 ()
    with Sys_error msg | Invalid_argument msg -> die "%s" msg
  in
  let t0 = Unix.gettimeofday () in
  (try Fun.protect ~finally:(fun () -> Hyper.Stream_io.close_writer w) (fun () -> f w)
   with Invalid_argument msg | Failure msg -> die "%s" msg);
  let dt = Unix.gettimeofday () -. t0 in
  let records = Hyper.Stream_io.writer_records w in
  Printf.printf "wrote %s: edge stream, %d tasks, %d processors, %d records (%.2fs, %.0f records/s)\n"
    path n1 n2 records dt
    (if dt > 0.0 then float_of_int records /. dt else 0.0)

type gen_family = Paper of Hyper.Generate.family | Uniform | Powerlaw

let gen_family_conv =
  Arg.enum
    [
      ("fewg", Paper Hyper.Generate.Fewg_manyg);
      ("hilo", Paper Hyper.Generate.Hilo);
      ("uniform", Uniform);
      ("powerlaw", Powerlaw);
    ]

let gen_cmd =
  let run family n p dv dh g alpha weights seed output stream_out =
    if output = None && stream_out = None then die "gen needs -o FILE and/or --stream-out FILE";
    (match output with
    | None -> ()
    | Some output ->
        let rng = Randkit.Prng.create ~seed in
        let h =
          try
            match family with
            | Paper family -> Hyper.Generate.generate rng ~family ~n ~p ~dv ~dh ~g ~weights
            | Uniform -> Hyper.Generate.generate_uniform rng ~n ~p ~dv ~dh ~weights
            | Powerlaw -> Hyper.Generate.generate_powerlaw rng ~n ~p ~dv ~dh ~alpha ~weights
          with Invalid_argument msg -> die "%s" msg
        in
        save_instance output h;
        Printf.printf "wrote %s: %d tasks, %d processors, %d hyperedges, %d pins\n" output
          h.Hyper.Graph.n1 h.Hyper.Graph.n2 (Hyper.Graph.num_hyperedges h)
          (Hyper.Graph.num_pins h));
    match stream_out with
    | None -> ()
    | Some path ->
        (* A fresh RNG with the same seed: with unit weights the streamed
           instance is byte-for-byte the one `-o` materializes. *)
        let rng = Randkit.Prng.create ~seed in
        with_stream_writer path ~n1:n ~n2:p (fun w ->
            let emit ~task ~procs ~weight = Hyper.Stream_io.add w ~task ~procs ~weight in
            ignore
              (match family with
              | Paper family -> Hyper.Generate.stream rng ~family ~n ~p ~dv ~dh ~g ~weights ~emit
              | Uniform -> Hyper.Generate.stream_uniform rng ~n ~p ~dv ~dh ~weights ~emit
              | Powerlaw ->
                  Hyper.Generate.stream_powerlaw rng ~n ~p ~dv ~dh ~alpha ~weights ~emit))
  in
  let family =
    Arg.(value & opt gen_family_conv (Paper Hyper.Generate.Fewg_manyg)
         & info [ "family" ] ~docv:"FAM" ~doc:"fewg, hilo, uniform or powerlaw")
  and n = Arg.(value & opt int 1280 & info [ "n"; "tasks" ] ~doc:"number of tasks")
  and p = Arg.(value & opt int 256 & info [ "p"; "procs" ] ~doc:"number of processors")
  and dv = Arg.(value & opt int 5 & info [ "dv" ] ~doc:"mean configurations per task")
  and dh = Arg.(value & opt int 10 & info [ "dh" ] ~doc:"processors-per-configuration parameter")
  and g = Arg.(value & opt int 32 & info [ "g"; "groups" ] ~doc:"number of groups")
  and alpha =
    Arg.(value & opt float 1.2
         & info [ "alpha" ] ~docv:"A" ~doc:"Zipf exponent for the powerlaw family")
  and weights =
    Arg.(value & opt weights_conv Hyper.Weights.Unit
         & info [ "weights" ] ~docv:"SCHEME" ~doc:"unit, related or random")
  and seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"random seed")
  and output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output path")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random MULTIPROC instance")
    Term.(const run $ family $ n $ p $ dv $ dh $ g $ alpha $ weights $ seed $ output
          $ stream_out_arg)

let gen_sp_cmd =
  let run family n p d g seed output stream_out =
    if output = None && stream_out = None then
      die "gen-sp needs -o FILE and/or --stream-out FILE";
    (match output with
    | None -> ()
    | Some output ->
        let graph =
          try
            match family with
            | Hyper.Generate.Hilo -> Bipartite.Hilo.generate ~n1:n ~n2:p ~g ~d
            | Hyper.Generate.Fewg_manyg ->
                let rng = Randkit.Prng.create ~seed in
                Bipartite.Fewg_manyg.generate rng ~n1:n ~n2:p ~g ~d
          with Invalid_argument msg -> die "%s" msg
        in
        let h = Hyper.Graph.of_bipartite graph in
        save_instance output h;
        Printf.printf "wrote %s: SINGLEPROC-UNIT, %d tasks, %d processors, %d edges\n" output
          h.Hyper.Graph.n1 h.Hyper.Graph.n2 (Hyper.Graph.num_hyperedges h));
    match stream_out with
    | None -> ()
    | Some path ->
        let rng = Randkit.Prng.create ~seed in
        with_stream_writer path ~n1:n ~n2:p (fun w ->
            ignore
              (Hyper.Generate.stream_sp rng ~family ~n ~p ~g ~d ~emit:(fun ~task ~proc ->
                   Hyper.Stream_io.add w ~task ~procs:[| proc |] ~weight:1.0)))
  in
  let family =
    Arg.(value & opt family_conv Hyper.Generate.Fewg_manyg
         & info [ "family" ] ~docv:"FAM" ~doc:"fewg or hilo")
  and n = Arg.(value & opt int 1280 & info [ "n"; "tasks" ] ~doc:"number of tasks")
  and p = Arg.(value & opt int 256 & info [ "p"; "procs" ] ~doc:"number of processors")
  and d = Arg.(value & opt int 10 & info [ "d"; "degree" ] ~doc:"average task degree")
  and g = Arg.(value & opt int 32 & info [ "g"; "groups" ] ~doc:"number of groups")
  and seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"random seed")
  and output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output path")
  in
  Cmd.v
    (Cmd.info "gen-sp" ~doc:"Generate a SINGLEPROC-UNIT instance (solvable exactly)")
    Term.(const run $ family $ n $ p $ d $ g $ seed $ output $ stream_out_arg)

let info_cmd =
  let run verbose dot file =
    let h = load_instance file in
    Printf.printf "%s: %d tasks, %d processors, %d hyperedges, %d pins\n" file h.Hyper.Graph.n1
      h.Hyper.Graph.n2 (Hyper.Graph.num_hyperedges h) (Hyper.Graph.num_pins h);
    let mn, mx = Hyper.Graph.min_max_h_size h in
    Printf.printf "configuration sizes: %d..%d\n" mn mx;
    Printf.printf "lower bound (Eq. 1): %g\n" (Semimatch.Lower_bound.multiproc h);
    Printf.printf "refined lower bound: %g\n" (Semimatch.Lower_bound.multiproc_refined h);
    if verbose then begin
      print_newline ();
      print_string (Hyper.Stats.render (Hyper.Stats.compute h))
    end;
    match dot with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Hyper.Stats.to_dot h);
        close_out oc;
        Printf.printf "wrote graphviz rendering to %s\n" path
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print degree/size histograms")
  and dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"write a graphviz rendering")
  in
  Cmd.v (Cmd.info "info" ~doc:"Print instance statistics and lower bounds")
    Term.(const run $ verbose $ dot $ file_arg)

(* Shared by solve --faults --repair and simulate --faults --repair: price
   the degraded machine into the repair decisions and report the outcome. *)
let repair_report h d (a : Semimatch.Hyp_assignment.t) =
  let r = Semimatch.Repair.repair ~cost:(Faults.finish_time d) ~dead:d.Faults.dead h a in
  Printf.printf "repair: %d affected, %d moved, %d infeasible%s\n"
    (List.length r.Semimatch.Repair.affected)
    (List.length r.Semimatch.Repair.moved)
    (List.length r.Semimatch.Repair.infeasible)
    (if r.Semimatch.Repair.resolved_from_scratch then " (from-scratch re-solve won)" else "");
  if r.Semimatch.Repair.infeasible <> [] then
    Printf.printf "infeasible tasks: %s\n"
      (String.concat ", " (List.map string_of_int r.Semimatch.Repair.infeasible));
  Printf.printf "repaired makespan: %g  (surviving-machine LB %g, ratio %.3f)\n"
    r.Semimatch.Repair.makespan r.Semimatch.Repair.lower_bound
    (if r.Semimatch.Repair.lower_bound > 0.0 then
       r.Semimatch.Repair.makespan /. r.Semimatch.Repair.lower_bound
     else 1.0);
  r

(* solve --stream: the streaming tier.  The ingest layer decides from the
   sealed header whether the instance fits in core (exact/portfolio
   fallback) or must be solved over the stream in O(n+p) memory; either
   way the CSR-estimate comparison and the recorded guarantee are printed,
   and --mem-cap-mb turns the bounded-memory claim into a hard process
   assertion (GC top-heap check, used by the CI smoke). *)
let solve_stream ~jobs ~stream_solver ~threshold_mb ~mem_cap_mb file =
  let threshold_words =
    match threshold_mb with
    | None -> Stream.Ingest.default_threshold_words
    | Some mb ->
        (* 0 = never materialize: force the streamed tier (tests, quality
           experiments). *)
        if mb < 0 then die "--stream-threshold-mb must be non-negative"
        else mb * 1024 * 1024 / 8
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    try Stream.Ingest.solve ~jobs ~threshold_words ~stream_solver file with
    | Sys_error msg | Failure msg -> die "%s" msg
    | Invalid_argument msg -> die "invalid stream %s: %s" file msg
  in
  let dt = Unix.gettimeofday () -. t0 in
  let module I = Stream.Ingest in
  let module Sio = Hyper.Stream_io in
  let hdr = outcome.I.header in
  let csr_bytes =
    match Sio.csr_estimate_words hdr with Some w -> w * 8 | None -> 0
  in
  Printf.printf "stream:    %s — %d tasks, %d processors, %d records\n" file hdr.Sio.h_n1
    hdr.Sio.h_n2 hdr.Sio.h_records;
  Printf.printf "tier:      %s (CSR estimate %.1f MB vs threshold %.1f MB)\n"
    (I.tier_name outcome.I.tier)
    (float_of_int csr_bytes /. 1048576.0)
    (float_of_int (threshold_words * 8) /. 1048576.0);
  Printf.printf "makespan:  %g\n" outcome.I.makespan;
  Printf.printf "LB:        %g  (ratio %.3f)\n" outcome.I.lower_bound
    (if outcome.I.lower_bound > 0.0 then outcome.I.makespan /. outcome.I.lower_bound else 1.0);
  Printf.printf "guarantee: %s%s\n" outcome.I.guarantee
    (if Float.is_nan outcome.I.factor then " (no proven factor)"
     else Printf.sprintf " (makespan <= %.1f x opt)" outcome.I.factor);
  Printf.printf "passes:    %d  (%.2fs, %.0f records/s)\n" outcome.I.passes dt
    (if dt > 0.0 then float_of_int (outcome.I.edges * outcome.I.passes) /. dt else 0.0);
  let top_heap_bytes =
    let s = Gc.quick_stat () in
    s.Gc.top_heap_words * (Sys.word_size / 8)
  in
  Printf.printf "memory:    %.1f MB top heap, %d words solver state (peak)\n"
    (float_of_int top_heap_bytes /. 1048576.0)
    (Stream.Kr.peak_state_words ());
  match mem_cap_mb with
  | None -> ()
  | Some cap ->
      let cap_bytes = cap * 1024 * 1024 in
      if top_heap_bytes > cap_bytes then
        die "memory cap exceeded: top heap %d bytes > %d MB cap" top_heap_bytes cap
      else Printf.printf "memory cap ok: %.1f MB <= %d MB\n"
          (float_of_int top_heap_bytes /. 1048576.0) cap

let solve_cmd =
  let run algorithm refine loads portfolio jobs timeout deadline_ms faults repair stream
      stream_solver threshold_mb mem_cap_mb stats trace events file =
    with_telemetry ~trace ~events stats (fun () ->
        if stream then solve_stream ~jobs ~stream_solver ~threshold_mb ~mem_cap_mb file
        else begin
        let h = load_instance file in
        let lb = Semimatch.Lower_bound.multiproc h in
        let lb_refined = Semimatch.Lower_bound.multiproc_refined h in
        let best_lb = Float.max lb lb_refined in
        let report makespan =
          Printf.printf "makespan:  %g\n" makespan;
          Printf.printf "LB (Eq.1): %g  (ratio %.3f)\n" lb (makespan /. lb);
          Printf.printf "refined LB: %g  (ratio %.3f)\n" lb_refined (makespan /. lb_refined);
          Printf.printf "optimality gap: at most %.1f%% above the best lower bound\n"
            (100.0 *. ((makespan /. best_lb) -. 1.0))
        in
        let a =
          match deadline_ms with
          | Some ms ->
              let module D = Semimatch.Deadline in
              let r = D.solve ~jobs ~budget_s:(ms /. 1000.0) h in
              Printf.printf "deadline: %g ms budget, answered by the %s tier in %.1f ms%s\n" ms
                (D.tier_name r.D.tier)
                (1000.0 *. r.D.elapsed_s)
                (if r.D.degraded then " (degraded)" else "");
              report r.D.makespan;
              r.D.assignment
          | None ->
          if portfolio || jobs > 1 then begin
            let module P = Semimatch.Portfolio in
            let r = P.solve ~jobs ?timeout_s:timeout h in
            Printf.printf "portfolio: %d solvers on %d domain%s\n" (List.length r.P.outcomes)
              jobs
              (if jobs = 1 then "" else "s");
            List.iter
              (fun o ->
                match o.P.o_makespan with
                | Some m ->
                    Printf.printf "  %-10s %12g  (%.3f s)\n" (P.solver_name o.P.o_solver) m
                      o.P.o_time_s
                | None -> Printf.printf "  %-10s %12s\n" (P.solver_name o.P.o_solver) "skipped")
              r.P.outcomes;
            Printf.printf "winner: %s\n" (P.solver_name r.P.winner);
            report r.P.best_makespan;
            r.P.assignment
          end
          else begin
            let a = Gh.run algorithm h in
            let a, moves =
              if refine then Semimatch.Local_search.refine h a else (a, 0)
            in
            Printf.printf "algorithm: %s%s\n" (Gh.name algorithm)
              (if refine then Printf.sprintf " + local search (%d moves)" moves else "");
            report (Semimatch.Hyp_assignment.makespan h a);
            a
          end
        in
        if loads then begin
          let l = Semimatch.Hyp_assignment.loads h a in
          Array.iteri (fun u load -> Printf.printf "P%-6d %g\n" u load) l
        end;
        match faults with
        | None ->
            if repair then die "--repair needs --faults SPEC"
        | Some spec ->
            let plan = parse_faults spec in
            let d = degradation_for h plan in
            let killed = Array.fold_left (fun n x -> if x then n + 1 else n) 0 d.Faults.dead in
            Printf.printf "\nfaults: %s (%d dead processor%s)\n" (Faults.to_string plan) killed
              (if killed = 1 then "" else "s");
            if repair then ignore (repair_report h d a)
            else begin
              let affected =
                List.filter
                  (fun v ->
                    let e = a.Semimatch.Hyp_assignment.choice.(v) in
                    let hit = ref false in
                    Hyper.Graph.iter_h_procs h e (fun u -> if d.Faults.dead.(u) then hit := true);
                    !hit)
                  (List.init h.Hyper.Graph.n1 Fun.id)
              in
              Printf.printf "affected tasks: %d (rerun with --repair to re-place them)\n"
                (List.length affected)
            end
        end)
  in
  let algorithm =
    Arg.(value & opt algorithm_conv Gh.Expected_vector_greedy_hyp
         & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"sgh, egh, vgh or evg")
  and refine = Arg.(value & flag & info [ "refine" ] ~doc:"apply local-search refinement")
  and loads = Arg.(value & flag & info [ "loads" ] ~doc:"print per-processor loads")
  and portfolio =
    Arg.(value & flag
         & info [ "portfolio" ]
             ~doc:
               "Race the full solver portfolio (greedies, local search, annealing) and keep \
                the best schedule; implied by $(b,--jobs) > 1.  The best makespan is \
                identical for every job count.")
  and timeout =
    Arg.(value & opt (some positive_float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Portfolio wall-clock budget, a positive number ($(b,inf): none).")
  and deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"MS"
             ~doc:
               "Solve under a hard wall-clock budget via the graceful-degradation cascade \
                (greedy, then portfolio, then exact on tiny instances); always returns the \
                best feasible schedule found.")
  and faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:
               "Degrade the machine after solving: comma-separated crash:P[@T], slow:PxF, \
                stall:P@T+D.  Reports the tasks hit; add $(b,--repair) to re-place them.")
  and repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:
               "Incrementally repair the schedule on the degraded machine (requires \
                $(b,--faults)): re-places only the affected tasks and reports repaired \
                makespan, repair cost and the surviving-machine lower bound.")
  and stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:
               "FILE is a binary edge stream (see $(b,gen --stream-out)): solve it through \
                the streaming tier — bounded-memory one/few-pass solvers for instances \
                bigger than RAM, automatic exact/portfolio fallback when the header shows \
                the instance fits in core.")
  and stream_solver =
    let solver_conv =
      Arg.enum
        [
          ("auto", Stream.Ingest.Auto);
          ("one-pass", Stream.Ingest.One_pass);
          ("few-pass", Stream.Ingest.Few_pass);
        ]
    in
    Arg.(value & opt solver_conv Stream.Ingest.Auto
         & info [ "stream-solver" ] ~docv:"S"
             ~doc:
               "Streamed-tier solver for singleton unit streams: one-pass (sqrt-factor), \
                few-pass (log-factor) or auto (few-pass).")
  and threshold_mb =
    Arg.(value & opt (some int) None
         & info [ "stream-threshold-mb" ] ~docv:"MB"
             ~doc:
               "In-core fallback threshold: instances whose CSR estimate fits in this many \
                MB are materialized and solved exactly (default 64).")
  and mem_cap_mb =
    Arg.(value & opt (some int) None
         & info [ "mem-cap-mb" ] ~docv:"MB"
             ~doc:
               "Assert (exit 2) that the GC top heap stayed under this many MB — the \
                enforced memory ceiling of the streaming CI smoke.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run a greedy heuristic (or the parallel portfolio) on an instance")
    Term.(const run $ algorithm $ refine $ loads $ portfolio $ jobs_arg $ timeout $ deadline
          $ faults $ repair $ stream $ stream_solver $ threshold_mb $ mem_cap_mb $ stats_arg
          $ trace_arg $ events_arg $ file_arg)

let exact_cmd =
  let run strategy engine stats trace events file =
    let h = load_instance file in
    match Semimatch.Exact_unit.of_hypergraph h with
    | None ->
        prerr_endline
          "exact: instance is not SINGLEPROC-UNIT (needs singleton unit-weight configurations);\n\
           MULTIPROC is NP-complete - use 'solve' instead.";
        exit 1
    | Some g ->
        with_telemetry ~trace ~events stats (fun () ->
            match engine with
            | Some exact ->
                let s = Semimatch.Exact_unit.solve_with ~strategy ~exact g in
                Printf.printf "optimal makespan: %d (%d deadlines tried, %s engine, %s)\n"
                  s.Semimatch.Exact_unit.makespan s.Semimatch.Exact_unit.deadlines_tried
                  (Semimatch.Exact_unit.exact_engine_name exact)
                  Semimatch.Exact_unit.(guarantee_name (exact_engine_guarantee exact))
            | None ->
                let s = Semimatch.Exact_unit.solve ~strategy g in
                Printf.printf "optimal makespan: %d (%d deadlines tried, %s search)\n"
                  s.Semimatch.Exact_unit.makespan s.Semimatch.Exact_unit.deadlines_tried
                  (Semimatch.Exact_unit.strategy_name strategy))
  in
  let strategy_conv =
    Arg.enum
      [ ("incremental", Semimatch.Exact_unit.Incremental); ("bisection", Semimatch.Exact_unit.Bisection) ]
  in
  let strategy =
    Arg.(value & opt strategy_conv Semimatch.Exact_unit.Incremental
         & info [ "strategy" ] ~docv:"S" ~doc:"incremental or bisection (deadline search engines only)")
  in
  let engine_conv =
    Arg.enum
      (List.map
         (fun e -> (Semimatch.Exact_unit.exact_engine_name e, e))
         Semimatch.Exact_unit.all_exact_engines)
  in
  let engine =
    Arg.(value & opt (some engine_conv) None
         & info [ "engine" ]
             ~docv:"E"
             ~doc:
               "exact engine: bs-dfs, bs-hk or bs-pr (deadline search over a matching \
                engine; makespan-optimal), harvey, gen-hk or dnc (direct cost-reducing-path \
                solvers; load-vector-optimal).  Default: the deadline search over \
                Hopcroft-Karp.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact optimum for SINGLEPROC-UNIT instances")
    Term.(const run $ strategy $ engine $ stats_arg $ trace_arg $ events_arg $ file_arg)

let compare_cmd =
  let run refine stats file =
    with_stats stats (fun () ->
        let h = load_instance file in
        let lb = Semimatch.Lower_bound.multiproc h in
        Printf.printf "lower bound (Eq. 1): %g\n\n%-30s %12s %8s\n" lb "algorithm" "makespan" "vs LB";
        List.iter
          (fun algo ->
            let a = Gh.run algo h in
            let a, suffix =
              if refine then begin
                let refined, moves = Semimatch.Local_search.refine h a in
                (refined, Printf.sprintf " (+LS, %d moves)" moves)
              end
              else (a, "")
            in
            let m = Semimatch.Hyp_assignment.makespan h a in
            Printf.printf "%-30s %12g %8.3f%s\n" (Gh.name algo) m (m /. lb) suffix)
          Gh.all)
  in
  let refine = Arg.(value & flag & info [ "refine" ] ~doc:"also apply local search") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run all four MULTIPROC heuristics on an instance")
    Term.(const run $ refine $ stats_arg $ file_arg)

(* profile: run every algorithm on the instance with telemetry on and print
   a comparative metrics table — one column per algorithm, one row per
   counter / histogram that fired.  On SINGLEPROC-UNIT instances the three
   exact matching engines are profiled too (phases, pushes, relabels...).
   --stats=json / --stats=csv additionally emit the full labelled telemetry
   snapshots in machine-readable form. *)
let profile_cmd =
  let run stats trace seed jobs file =
    let h = load_instance file in
    let lb = Semimatch.Lower_bound.multiproc h in
    Obs.set_enabled true;
    let machine = Buffer.create 1024 in
    let machine_sections = ref 0 in
    let capture label =
      (match stats with
      | Some (Obs.Sink.Json as fmt) -> Buffer.add_string machine (Obs.Sink.render ~label fmt)
      | Some (Obs.Sink.Csv as fmt) ->
          let rendered = Obs.Sink.render ~label fmt in
          (* One header for the whole report: drop it on later sections. *)
          let rendered =
            if !machine_sections = 0 then rendered
            else
              match String.index_opt rendered '\n' with
              | Some i -> String.sub rendered (i + 1) (String.length rendered - i - 1)
              | None -> rendered
          in
          Buffer.add_string machine rendered
      | Some Obs.Sink.Table | None -> ());
      incr machine_sections
    in
    (* Sequentially, each algorithm runs against a clean slate, under a span
       on the monotonic clock; its counters and histograms are snapshotted
       before the next reset.  With [jobs > 1] the algorithms share one
       telemetry state and run concurrently, so each task instead diffs its
       own domain's shard ([Metrics.local_snapshot] / [diff_since]) — exact
       per-algorithm attribution without any reset, whatever its siblings
       do in the meantime. *)
    let run_one label f =
      Obs.reset ();
      let makespan, seconds = Experiments.Runner.time_it ~span:label f in
      let counters =
        List.rev
          (Obs.Metrics.fold_counters (fun n v acc -> if v <> 0 then (n, v) :: acc else acc) [])
      in
      let histos =
        List.rev
          (Obs.Metrics.fold_histograms
             (fun n s _ acc -> if s.Obs.Metrics.s_count > 0 then (n, s) :: acc else acc)
             [])
      in
      capture label;
      (label, makespan, seconds, counters, histos)
    in
    let run_one_shard label f =
      let snap = Obs.Metrics.local_snapshot () in
      let makespan, seconds = Experiments.Runner.time_it ~span:label f in
      let counters, histos = Obs.Metrics.diff_since snap in
      (label, makespan, seconds, counters, histos)
    in
    let greedy_tasks =
      List.map
        (fun algo ->
          ( Gh.short_name algo,
            fun () -> Semimatch.Hyp_assignment.makespan h (Gh.run algo h) ))
        Gh.all
    in
    let ls_task =
      ( "EVG+ls",
        fun () ->
          let a = Gh.run Gh.Expected_vector_greedy_hyp h in
          let refined, _moves = Semimatch.Local_search.refine h a in
          Semimatch.Hyp_assignment.makespan h refined )
    in
    let sa_task =
      ( "SGH+sa",
        fun () ->
          let rng = Randkit.Prng.create ~seed in
          snd (Semimatch.Annealing.solve rng h) )
    in
    let engine_tasks =
      match Semimatch.Exact_unit.of_hypergraph h with
      | None -> []
      | Some g ->
          List.map
            (fun exact ->
              ( "exact-" ^ Semimatch.Exact_unit.exact_engine_name exact,
                fun () ->
                  float_of_int
                    (Semimatch.Exact_unit.solve_with ~exact g).Semimatch.Exact_unit.makespan ))
            Semimatch.Exact_unit.all_exact_engines
    in
    let tasks = greedy_tasks @ [ ls_task; sa_task ] @ engine_tasks in
    let rows =
      (* --trace forces the shard-diff path even sequentially: the per-label
         [Obs.reset] of the clean-slate path would wipe the span ring the
         trace is built from. *)
      if jobs = 1 && trace = None then List.map (fun (label, f) -> run_one label f) tasks
      else begin
        Obs.reset ();
        let rows =
          if jobs = 1 then List.map (fun (label, f) -> run_one_shard label f) tasks
          else Parpool.Pool.map_list ~jobs ~f:(fun (label, f) -> run_one_shard label f) tasks
        in
        (* One combined machine-readable section: per-label resets are
           impossible while algorithms share the telemetry state. *)
        capture "all";
        rows
      end
    in
    Printf.printf "%s: %d tasks, %d processors, %d hyperedges; LB (Eq. 1) %g\n\n" file
      h.Hyper.Graph.n1 h.Hyper.Graph.n2 (Hyper.Graph.num_hyperedges h) lb;
    let module T = Experiments.Tables in
    let algo_table =
      T.render
        ~header:[ "Algorithm"; "makespan"; "vs LB"; "time (s)" ]
        ~rows:
          (List.map
             (fun (label, makespan, seconds, _, _) ->
               [ label; Printf.sprintf "%g" makespan; T.fmt_ratio (makespan /. lb);
                 T.fmt_time seconds ])
             rows)
        ()
    in
    print_string algo_table;
    print_newline ();
    (* Metric matrix: union of metric names that fired, one column per
       algorithm.  Histogram cells summarize count / median / max. *)
    let labels = List.map (fun (l, _, _, _, _) -> l) rows in
    let metric_names =
      let names = Hashtbl.create 64 in
      List.iter
        (fun (_, _, _, counters, histos) ->
          List.iter (fun (n, _) -> Hashtbl.replace names n `Counter) counters;
          List.iter (fun (n, _) -> Hashtbl.replace names n `Histogram) histos)
        rows;
      List.sort compare (Hashtbl.fold (fun n kind acc -> (n, kind) :: acc) names [])
    in
    if metric_names <> [] then begin
      let cell (_, _, _, counters, histos) (name, kind) =
        match kind with
        | `Counter -> (
            match List.assoc_opt name counters with
            | Some v -> string_of_int v
            | None -> "-")
        | `Histogram -> (
            match List.assoc_opt name histos with
            | Some s ->
                Printf.sprintf "n=%d p50=%g max=%g" s.Obs.Metrics.s_count s.Obs.Metrics.s_p50
                  s.Obs.Metrics.s_max
            | None -> "-")
      in
      let body = List.map (fun nk -> fst nk :: List.map (fun r -> cell r nk) rows) metric_names in
      print_string (T.render ~header:("metric" :: labels) ~rows:body ());
      print_newline ()
    end;
    Printf.printf "span timings use the monotonic clock (Obs.Span); %d algorithms profiled\n"
      (List.length labels);
    (match trace with
    | None -> ()
    | Some path ->
        write_trace path);
    match stats with
    | Some (Obs.Sink.Json | Obs.Sink.Csv) ->
        print_newline ();
        print_string (Buffer.contents machine)
    | Some Obs.Sink.Table | None -> ()
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"annealing random seed") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run every algorithm on an instance with telemetry enabled and print a comparative \
          counters/timings table")
    Term.(const run $ stats_arg $ trace_arg $ seed $ jobs_arg $ file_arg)

let simulate_cmd =
  let run algorithm policy width faults repair file =
    let h = load_instance file in
    let a = Gh.run algorithm h in
    let policy =
      match policy with
      | "fifo" -> Simulator.Fifo
      | "spt" -> Simulator.Spt
      | "lpt" -> Simulator.Lpt
      | other -> (
          match int_of_string_opt other with
          | Some seed -> Simulator.Random_order seed
          | None -> die "policy must be fifo, spt, lpt or a seed (got %S)" other)
    in
    Printf.printf "algorithm %s, policy %s\n" (Gh.name algorithm) (Simulator.policy_name policy);
    match faults with
    | None ->
        if repair then die "--repair needs --faults SPEC";
        let t = Simulator.run ~policy h a in
        Printf.printf "makespan %g, average task completion %.3f\n\n" t.Simulator.makespan
          (Simulator.average_completion t);
        print_string (Simulator.gantt ~width ~proc_names:(Printf.sprintf "P%d") t)
    | Some spec ->
        let plan = parse_faults spec in
        let d = degradation_for h plan in
        Printf.printf "faults: %s\n" (Faults.to_string plan);
        let choice =
          if repair then (repair_report h d a).Semimatch.Repair.choice
          else a.Semimatch.Hyp_assignment.choice
        in
        let t = Simulator.run_degraded ~policy d h choice in
        if t.Simulator.lost <> [] then
          Printf.printf "lost tasks (%d): %s\n"
            (List.length t.Simulator.lost)
            (String.concat ", " (List.map string_of_int t.Simulator.lost))
        else if not repair then print_string "no tasks lost\n";
        if t.Simulator.unscheduled <> [] then
          Printf.printf "unscheduled tasks (%d): %s\n"
            (List.length t.Simulator.unscheduled)
            (String.concat ", " (List.map string_of_int t.Simulator.unscheduled));
        Printf.printf "degraded makespan %g\n\n" t.Simulator.d_trace.Simulator.makespan;
        print_string (Simulator.gantt ~width ~proc_names:(Printf.sprintf "P%d") t.Simulator.d_trace)
  in
  let algorithm =
    Arg.(value & opt algorithm_conv Gh.Expected_vector_greedy_hyp
         & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"sgh, egh, vgh or evg")
  and policy =
    Arg.(value & opt string "fifo" & info [ "policy" ] ~docv:"P" ~doc:"fifo, spt, lpt or a seed")
  and width = Arg.(value & opt positive_int 72 & info [ "width" ] ~docv:"W" ~doc:"gantt width")
  and faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:
               "Inject machine faults into the run: comma-separated crash:P[@T], slow:PxF, \
                stall:P@T+D.  Parts on a crashed processor are lost with their tasks.")
  and repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:
               "Repair the schedule before executing it (requires $(b,--faults)): affected \
                tasks are re-placed on the surviving machine, so nothing is lost.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute a schedule event-by-event and draw a Gantt chart")
    Term.(const run $ algorithm $ policy $ width $ faults $ repair $ file_arg)

(* serve: the long-running scheduler daemon.  All protocol errors are the
   server's business (it replies, it never dies); only operator mistakes
   (no listener, unbindable socket) exit 2 here. *)
let parse_triggers spec =
  try Obs.Anomaly.rules_of_string spec with Failure msg -> die "%s" msg

let serve_cmd =
  let run socket tcp jobs max_pending max_frame events_log trace slow_ms bundle_dir record_secs
      triggers persist_dir fsync checkpoint_secs =
    let triggers = match triggers with None -> [] | Some spec -> parse_triggers spec in
    let fsync =
      try Server.Journal.policy_of_string fsync with Failure msg -> die "bad --fsync: %s" msg
    in
    (* A bundle dir implies flight recording: default the window on unless
       the operator explicitly disabled it with --record-secs 0. *)
    let record_secs =
      match (record_secs, bundle_dir) with
      | Some s, _ -> s
      | None, Some _ -> 30.0
      | None, None -> 0.0
    in
    let opts =
      {
        Server.Daemon.socket_path = socket;
        tcp_port = tcp;
        jobs;
        max_pending;
        max_frame;
        events_log;
        trace_out = trace;
        version = Cli_version.version;
        slow_ms;
        bundle_dir;
        record_secs;
        triggers;
        persist_dir;
        fsync;
        checkpoint_secs;
      }
    in
    (match socket with
    | Some path -> Printf.eprintf "semimatch_cli: serving on unix socket %s\n%!" path
    | None -> ());
    (match tcp with
    | Some port -> Printf.eprintf "semimatch_cli: serving on 127.0.0.1:%d\n%!" port
    | None -> ());
    try Server.Daemon.run opts with
    | Invalid_argument msg -> die "%s" msg
    | Unix.Unix_error (err, fn, arg) ->
        die "%s: %s%s" fn (Unix.error_message err) (if arg = "" then "" else " (" ^ arg ^ ")")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  and tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on 127.0.0.1:$(docv).")
  and max_pending =
    Arg.(value & opt int 64
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Admission control: queue bound before requests get a busy reply.")
  and max_frame =
    Arg.(value & opt int Server.Protocol.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Request frame size cap.")
  and events_log =
    Arg.(value & opt (some string) None
         & info [ "events-log" ] ~docv:"FILE"
             ~doc:"Write the structured event log as JSON lines on shutdown.")
  and trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Write a Chrome/Perfetto trace on shutdown: request spans interleaved with \
                GC tracks from the OCaml runtime.")
  and slow_ms =
    Arg.(value & opt float 100.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:
               "Slow-request log threshold in milliseconds (sampled into the event log); \
                0 disables.")
  and bundle_dir =
    Arg.(value & opt (some string) None
         & info [ "bundle-dir" ] ~docv:"DIR"
             ~doc:
               "Write anomaly-triggered (and $(b,dump)-forced) diagnostic bundles under \
                $(docv); enables the default trigger rules unless $(b,--triggers) is given, \
                and a 30s flight-recorder window unless $(b,--record-secs) overrides it.")
  and record_secs =
    Arg.(value & opt (some float) None
         & info [ "record-secs" ] ~docv:"SECS"
             ~doc:
               "Flight-recorder window: keep the last $(docv) seconds of spans, events and \
                periodic metrics snapshots for bundles; 0 disables.")
  and triggers =
    Arg.(value & opt (some string) None
         & info [ "triggers" ] ~docv:"SPEC"
             ~doc:
               "Comma-separated anomaly trigger rules: latency[:OP]:MS, overbudget:F, \
                queue:N, busy:N@S, heap:MB@S, stall:MS.")
  and persist_dir =
    Arg.(value & opt (some string) None
         & info [ "persist-dir" ] ~docv:"DIR"
             ~doc:
               "Durability root: mutations are write-ahead journaled under $(docv) and \
                checkpointed atomically; a restart with the same $(docv) recovers every \
                session (a torn journal tail from a crash is truncated, never fatal).")
  and fsync =
    Arg.(value & opt string "interval:100"
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:
               "Journal fsync policy: $(b,always) (fsync every record), $(b,interval:MS) \
                (batch fsyncs, at most one per $(i,MS) milliseconds), or $(b,never) (leave \
                flushing to the OS).  All policies survive a process kill; they differ only \
                in the window a $(i,power) loss can lose.")
  and checkpoint_secs =
    Arg.(value & opt float 60.0
         & info [ "checkpoint-secs" ] ~docv:"SECS"
             ~doc:
               "Checkpoint cadence: write an atomic checkpoint (and rotate the journal) \
                every $(docv) seconds; 0 checkpoints only on graceful shutdown.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduler service: a daemon holding live instances and updating their \
          semi-matchings incrementally over a newline-delimited JSON socket protocol")
    Term.(const run $ socket $ tcp $ jobs_arg $ max_pending $ max_frame $ events_log $ trace
          $ slow_ms $ bundle_dir $ record_secs $ triggers $ persist_dir $ fsync
          $ checkpoint_secs)

let parse_hostport hostport =
  match String.rindex_opt hostport ':' with
  | Some i -> (
      let host = String.sub hostport 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub hostport (i + 1) (String.length hostport - i - 1)) with
      | Some port -> (host, port)
      | None -> die "bad --tcp %S (expected HOST:PORT)" hostport)
  | None -> (
      match int_of_string_opt hostport with
      | Some port -> ("127.0.0.1", port)
      | None -> die "bad --tcp %S (expected HOST:PORT or PORT)" hostport)

(* The endpoint named by --socket / --tcp: its name for diagnostics and a
   dial that raises [Unix.Unix_error] on connection failure. *)
let endpoint socket tcp =
  match (socket, tcp) with
  | Some path, None -> (path, fun () -> Server.Client.connect_unix path)
  | None, Some hostport ->
      let host, port = parse_hostport hostport in
      ( hostport,
        fun () ->
          try Server.Client.connect_tcp ~host ~port
          with Not_found -> die "cannot resolve host %S" host )
  | Some _, Some _ -> die "--socket and --tcp are mutually exclusive"
  | None, None -> die "needs --socket PATH or --tcp HOST:PORT"

(* One-shot client connections retry once with a short backoff before the
   exit-2 diagnostic, so a script racing a daemon restart (crash recovery,
   a rolling upgrade) does not fail on the connect it could have won 200ms
   later.  [Client.retrying] only retries transient connection errors. *)
let connect_client socket tcp =
  let name, dial = endpoint socket tcp in
  try Server.Client.retrying ~attempts:2 ~delay_s:0.2 dial
  with Unix.Unix_error (err, _, _) -> die "cannot connect to %s: %s" name (Unix.error_message err)

(* client: one-shot or scripted requests against a running daemon.  Exit 2
   on connection failures, timeouts and any error reply (the protocol-error
   contract scripts rely on). *)
let client_cmd =
  let run socket tcp request script metrics stream session chunk threshold_mb solver timeout =
    let module P = Server.Protocol in
    let conn = connect_client socket tcp in
    let timeout_s = if timeout <= 0.0 then None else Some timeout in
    let send line =
      try Server.Client.request ?timeout_s conn line with
      | End_of_file -> die "server closed the connection"
      | Server.Client.Timeout -> die "no reply within %gs" timeout
    in
    match stream with
    | Some path ->
        (* Chunked edge-stream upload: spool a local stream file into the
           daemon through stream_begin / stream_chunk / stream_end.  A
           [busy] reply is the daemon's backpressure (admission queue
           full): the rejected chunk was not spooled, so resending it
           verbatim after a short sleep is always safe. *)
        if request <> None || script <> None || metrics then
          die "--stream is exclusive with --request/--script/--metrics";
        if chunk < 1 then die "--chunk must be positive";
        let module J = Obs.Json in
        let r = try Hyper.Stream_io.open_reader path with Failure msg -> die "%s" msg in
        let h = Hyper.Stream_io.header r in
        if not (Hyper.Stream_io.sealed h) then
          die "%s: unsealed stream (writer never closed) — run doctor" path;
        let rec send_ok ?(attempt = 0) line =
          let reply = send line in
          match P.decode_reply reply with
          | Error _ -> die "unparseable reply: %s" reply
          | Ok r when r.P.ok -> ()
          | Ok r when r.P.code = Some (P.code_name P.Busy) && attempt < 200 ->
              Unix.sleepf 0.05;
              send_ok ~attempt:(attempt + 1) line
          | Ok r -> die "server replied with an error: %s" r.P.message
        in
        let int_j n = J.Num (float_of_int n) in
        send_ok
          (J.to_string
             (J.Obj
                [
                  ("op", J.Str "stream_begin");
                  ("session", J.Str session);
                  ("n1", int_j h.Hyper.Stream_io.h_n1);
                  ("n2", int_j h.Hyper.Stream_io.h_n2);
                ]));
        let buf = ref [] and nbuf = ref 0 and sent = ref 0 in
        let flush_chunk () =
          if !nbuf > 0 then begin
            send_ok
              (J.to_string
                 (J.Obj
                    [
                      ("op", J.Str "stream_chunk");
                      ("session", J.Str session);
                      ("edges", J.List (List.rev !buf));
                    ]));
            sent := !sent + !nbuf;
            buf := [];
            nbuf := 0
          end
        in
        Hyper.Stream_io.iter r (fun ~task ~procs ~weight ->
            let edge =
              J.Obj
                [
                  ("task", int_j task);
                  ("weight", J.Num weight);
                  ("procs", J.List (Array.to_list (Array.map int_j procs)));
                ]
            in
            buf := edge :: !buf;
            incr nbuf;
            if !nbuf >= chunk then flush_chunk ());
        flush_chunk ();
        Hyper.Stream_io.close_reader r;
        Printf.eprintf "uploaded %d records from %s\n%!" !sent path;
        let reply =
          send
            (J.to_string
               (J.Obj
                  ([ ("op", J.Str "stream_end"); ("session", J.Str session) ]
                  @ (match threshold_mb with None -> [] | Some mb -> [ ("threshold_mb", int_j mb) ])
                  @ match solver with None -> [] | Some s -> [ ("solver", J.Str s) ])))
        in
        print_endline reply;
        Server.Client.close conn;
        (match P.decode_reply reply with
        | Ok r when r.P.ok -> ()
        | _ -> die "stream_end failed: %s" reply)
    | None ->
    if metrics then begin
      if request <> None || script <> None then
        die "--metrics is exclusive with --request/--script";
      let reply = send {|{"op":"metrics"}|} in
      Server.Client.close conn;
      match P.decode_reply reply with
      | Error _ -> die "unparseable reply: %s" reply
      | Ok r -> (
          match Option.bind (Obs.Json.member "exposition" r.P.json) Obs.Json.to_str with
          | Some text when r.P.ok -> (
              match Obs.Prom.lint text with
              | Ok () -> print_string text
              | Error msg -> die "metrics exposition failed the format lint: %s" msg)
          | _ -> die "server replied with an error: %s" r.P.message)
    end
    else begin
      let requests =
        match (request, script) with
        | Some line, None -> [ line ]
        | None, Some path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | text ->
                List.filter
                  (fun l -> String.trim l <> "" && (String.trim l).[0] <> '#')
                  (String.split_on_char '\n' text)
            | exception Sys_error msg -> die "%s" msg)
        | Some _, Some _ -> die "--request and --script are mutually exclusive"
        | None, None -> die "client needs --request JSON, --script FILE or --metrics"
      in
      let failed = ref None in
      List.iter
        (fun line ->
          let reply = send line in
          print_endline reply;
          if !failed = None then
            match P.decode_reply reply with
            | Error _ -> failed := Some ("unparseable reply: " ^ reply)
            | Ok r -> if not r.P.ok then failed := Some r.P.message)
        requests;
      Server.Client.close conn;
      match !failed with None -> () | Some msg -> die "server replied with an error: %s" msg
    end
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to this Unix-domain socket.")
  and tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  and request =
    Arg.(value & opt (some string) None
         & info [ "request" ] ~docv:"JSON" ~doc:"Send one request line and print the reply.")
  and script =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"FILE"
             ~doc:"Send each non-comment line of $(docv) in order, printing every reply.")
  and metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:
               "Scrape the daemon's Prometheus exposition (the $(b,metrics) op), lint its \
                format and print it — exits 2 when the lint fails.")
  and stream =
    Arg.(value & opt (some string) None
         & info [ "stream" ] ~docv:"FILE"
             ~doc:
               "Upload the binary edge-stream $(docv) through the chunked \
                $(b,stream_begin)/$(b,stream_chunk)/$(b,stream_end) ops and print the solve \
                reply; $(b,busy) backpressure replies are retried.")
  and session =
    Arg.(value & opt string "stream"
         & info [ "session" ] ~docv:"NAME" ~doc:"Session name for $(b,--stream) uploads.")
  and chunk =
    Arg.(value & opt int 256
         & info [ "chunk" ] ~docv:"EDGES" ~doc:"Records per $(b,stream_chunk) frame.")
  and threshold_mb =
    Arg.(value & opt (some int) None
         & info [ "stream-threshold-mb" ] ~docv:"MB"
             ~doc:"In-core fallback threshold forwarded with $(b,stream_end).")
  and solver =
    Arg.(value & opt (some string) None
         & info [ "stream-solver" ] ~docv:"NAME"
             ~doc:"Streaming solver forwarded with $(b,stream_end) (auto | one-pass | few-pass).")
  and timeout =
    Arg.(value & opt float 5.0
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Give up on a reply after $(docv) seconds (exit 2); 0 waits forever.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send scripted or one-shot requests to a running scheduler daemon; exits 2 on \
          connection failures, timeouts and error replies")
    Term.(const run $ socket $ tcp $ request $ script $ metrics $ stream $ session $ chunk
          $ threshold_mb $ solver $ timeout)

(* loadgen: drive a running daemon with the open-loop arrival process and
   report per-op latency quantiles; optionally write BENCH_server.json and
   gate the medians against a committed baseline. *)
let loadgen_cmd =
  let run socket tcp duration rate seed tasks procs budget_ms reconnect out baseline check
      write_baseline =
    (* The dial is a closure so Loadgen can redial the same endpoint after
       a dropped connection (--reconnect). *)
    let name, dial = endpoint socket tcp in
    let connect () = Server.Client.fd (dial ()) in
    let fd =
      try connect ()
      with Unix.Unix_error (err, _, _) ->
        die "cannot connect to %s: %s" name (Unix.error_message err)
    in
    let opts =
      {
        Server.Loadgen.duration_s = duration;
        rate;
        seed;
        tasks;
        procs;
        budget_ms;
        stall_timeout_s = Server.Loadgen.default_opts.Server.Loadgen.stall_timeout_s;
        reconnect_attempts = reconnect;
      }
    in
    let report =
      match Server.Loadgen.run ~connect fd opts with
      | Ok r -> r
      | Error msg -> die "loadgen failed: %s" msg
      | exception Invalid_argument msg -> die "%s" msg
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    print_string (Server.Loadgen.render report);
    (match out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Server.Loadgen.report_json opts report));
        Printf.printf "wrote %s\n" path);
    let module Gate = Experiments.Bench_gate in
    let op_medians () =
      List.map
        (fun (o : Server.Loadgen.op_stats) ->
          let med, mad =
            Gate.median_mad (Array.map (fun ms -> ms /. 1000.0) o.Server.Loadgen.o_samples_ms)
          in
          (o.Server.Loadgen.o_op, med, mad, Array.length o.Server.Loadgen.o_samples_ms))
        report.Server.Loadgen.r_ops
    in
    (match write_baseline with
    | None -> ()
    | Some path ->
        let groups =
          List.map
            (fun (op, med, mad, n) ->
              {
                Gate.g_name = "serve/" ^ op;
                g_reps = 1;
                g_median_s = med;
                g_mad_s = mad;
                g_samples = n;
              })
            (op_medians ())
        in
        Gate.write_baseline path { Gate.b_calib_s = Gate.calibrate (); b_groups = groups };
        Printf.printf "wrote baseline %s (%d groups)\n" path (List.length groups));
    if check then begin
      let path = match baseline with Some p -> p | None -> die "--check needs --baseline FILE" in
      let b = try Gate.load_baseline path with Failure msg -> die "%s" msg in
      let measurements = List.map (fun (op, med, _, _) -> ("serve/" ^ op, med)) (op_medians ()) in
      let verdicts = Gate.check_medians b ~calib_now:(Gate.calibrate ()) measurements in
      print_string (Gate.render verdicts);
      if not (Gate.all_pass verdicts) then begin
        prerr_endline "loadgen: latency regression against baseline";
        exit 1
      end
    end
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to this Unix-domain socket.")
  and tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  and duration =
    Arg.(value & opt float Server.Loadgen.default_opts.Server.Loadgen.duration_s
         & info [ "duration" ] ~docv:"SECS" ~doc:"Measured window length.")
  and rate =
    Arg.(value & opt float Server.Loadgen.default_opts.Server.Loadgen.rate
         & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop arrival rate, requests per second.")
  and seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"arrival-process and request-mix seed")
  and tasks =
    Arg.(value & opt int Server.Loadgen.default_opts.Server.Loadgen.tasks
         & info [ "tasks" ] ~docv:"N" ~doc:"Preloaded instance size (tasks).")
  and procs =
    Arg.(value & opt int Server.Loadgen.default_opts.Server.Loadgen.procs
         & info [ "procs" ] ~docv:"P" ~doc:"Preloaded instance size (processors).")
  and budget_ms =
    Arg.(value & opt float Server.Loadgen.default_opts.Server.Loadgen.budget_ms
         & info [ "budget-ms" ] ~docv:"MS" ~doc:"Budget passed to resolve requests.")
  and reconnect =
    Arg.(value & opt int 0
         & info [ "reconnect" ] ~docv:"N"
             ~doc:
               "Survive a dropped connection (daemon crash/restart): redial up to $(docv) \
                times with exponential backoff and resend outstanding requests, tagging \
                mutations with idempotency ids so resends are never double-applied.  0 \
                keeps a drop fatal.")
  and out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the per-op report as JSON lines (BENCH_server.json).")
  and baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline for $(b,--check).")
  and check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Gate per-op median latencies against $(b,--baseline) with the bench-gate \
                tolerance bands; exit 1 on regression.")
  and write_baseline =
    Arg.(value & opt (some string) None
         & info [ "write-baseline" ] ~docv:"FILE"
             ~doc:"Record this run's per-op medians as the new baseline.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running scheduler daemon with a seeded open-loop request mix and report \
          throughput and per-op p50/p95/p99 latency; optionally bench-gate the medians")
    Term.(const run $ socket $ tcp $ duration $ rate $ seed $ tasks $ procs $ budget_ms
          $ reconnect $ out $ baseline $ check $ write_baseline)

(* doctor over a --persist-dir: read-only validation (Persist.load never
   writes, so this is safe against a live daemon's directory) plus a full
   dry-run recovery into a scratch engine.  Invalid checkpoints and
   sessions that fail restore or the feasibility recompute exit 2; a torn
   journal tail is reported but is not a defect — it is exactly what a
   crash mid-append leaves and what recovery truncates. *)
let doctor_persist dir =
  let r = Server.Persist.load dir in
  Printf.printf "persist dir %s\n" dir;
  Printf.printf "  epoch      %d\n" r.Server.Persist.r_epoch;
  (match r.Server.Persist.r_checkpoint with
  | Some name ->
      Printf.printf "  checkpoint %s (%d sessions)\n" name
        (List.length r.Server.Persist.r_sessions)
  | None -> Printf.printf "  checkpoint (none)\n");
  Printf.printf "  journal    %d records in %d groups, %d valid bytes, %d torn\n"
    r.Server.Persist.r_records
    (List.length r.Server.Persist.r_groups)
    r.Server.Persist.r_valid_bytes r.Server.Persist.r_torn_bytes;
  if r.Server.Persist.r_torn_bytes > 0 then
    Printf.printf "  note: torn journal tail (crash mid-append); recovery will truncate it\n";
  List.iter
    (fun (name, why) -> Printf.printf "  skipped    %s: %s\n" name why)
    r.Server.Persist.r_skipped;
  (* Newer checkpoints than the one selected are damaged goods; the
     recovery would silently fall back, so surface it as a defect. *)
  if r.Server.Persist.r_skipped <> [] then
    die "%d invalid checkpoint(s) in %s" (List.length r.Server.Persist.r_skipped) dir;
  let engine = Server.Engine.create () in
  let info = Server.Engine.recover engine r in
  Printf.printf "\ndry-run recovery: %d records replayed in %.1f ms\n"
    info.Server.Engine.rec_records
    (info.Server.Engine.rec_replay_us /. 1000.0);
  List.iter
    (fun (sid, s) ->
      Printf.printf "  session %-16s %d tasks, %d procs (%d dead), makespan %g\n" sid
        (Server.Session.n_tasks s) (Server.Session.n_procs s) (Server.Session.dead_procs s)
        (Server.Session.makespan s))
    (Server.Engine.resident engine);
  if info.Server.Engine.rec_failures > 0 then
    die "recovery reported %d failed session(s)" info.Server.Engine.rec_failures;
  Printf.printf "\npersist dir OK\n"

(* doctor on a regular file: validate it as a binary edge stream — header,
   chunk framing, record ranges — reporting the valid prefix when the tail
   is torn, exactly like the persist-dir journal scan. *)
let doctor_stream file =
  let module Sio = Hyper.Stream_io in
  let r = Sio.validate file in
  (match r.Sio.r_header with
  | None ->
      die "%s: %s" file (match r.Sio.r_error with Some e -> e | None -> "invalid stream header")
  | Some hdr ->
      Printf.printf "stream file %s\n" file;
      Printf.printf "  version    %d\n" hdr.Sio.h_version;
      let flags =
        List.filter_map
          (fun (set, name) -> if set then Some name else None)
          [
            (Sio.singleton hdr, "singleton");
            (Sio.unit_weight hdr, "unit-weight");
            (Sio.task_grouped hdr, "task-grouped");
          ]
      in
      Printf.printf "  flags      %s\n" (if flags = [] then "(none)" else String.concat "," flags);
      Printf.printf "  instance   %d tasks, %d processors\n" hdr.Sio.h_n1 hdr.Sio.h_n2;
      if r.Sio.r_sealed then
        Printf.printf "  sealed     yes (%d records, %d pins declared)\n" hdr.Sio.h_records
          hdr.Sio.h_pins
      else Printf.printf "  sealed     NO — writer never closed\n";
      Printf.printf "  scanned    %d chunks, %d records, %d pins\n" r.Sio.r_chunks r.Sio.r_records
        r.Sio.r_pins;
      (match Sio.csr_estimate_words hdr with
      | Some words ->
          Printf.printf "  csr est.   %.1f MB in core (streaming tier above %.1f MB)\n"
            (float_of_int (words * 8) /. 1048576.0)
            (float_of_int (Stream.Ingest.default_threshold_words * 8) /. 1048576.0)
      | None -> ());
      (match r.Sio.r_error with
      | Some err ->
          Printf.printf "  error      %s\n" err;
          die "stream %s: torn or corrupt after %d valid records" file r.Sio.r_records
      | None -> ());
      if not r.Sio.r_sealed then die "stream %s: unsealed (writer crashed before close)" file;
      if not r.Sio.r_counts_match then
        die "stream %s: header declares %d records / %d pins but the chunks hold %d / %d" file
          hdr.Sio.h_records hdr.Sio.h_pins r.Sio.r_records r.Sio.r_pins;
      Printf.printf "\nstream OK\n")

(* doctor: offline validation of a diagnostic bundle directory plus a human
   summary.  Every structural problem — missing/corrupt manifest, format
   mismatch, listed file absent or resized, unparseable trace/events,
   exposition failing the Prom lint — is a user-visible defect in the
   bundle and exits 2 through [die].  A directory holding journal/checkpoint
   entries instead is validated as a daemon --persist-dir; a regular file is
   validated as a binary edge stream. *)
let doctor_cmd =
  let run jobs dir =
    let path name = Filename.concat dir name in
    (match Sys.is_directory dir with
    | true -> ()
    | false -> doctor_stream dir; exit 0
    | exception Sys_error msg -> die "%s" msg);
    let looks_persist =
      (not (Sys.file_exists (path Obs.Manifest.file)))
      && Array.exists
           (fun name ->
             String.length name >= 8
             && (String.sub name 0 8 = "journal-" || (String.length name >= 5 && String.sub name 0 5 = "ckpt-")))
           (try Sys.readdir dir with Sys_error _ -> [||])
    in
    if looks_persist then doctor_persist dir
    else begin
    let read name =
      match In_channel.with_open_bin (path name) In_channel.input_all with
      | text -> text
      | exception Sys_error msg -> die "%s" msg
    in
    (* The manifest is written last: a directory without one is a bundle
       that never completed. *)
    let manifest, files =
      match Obs.Manifest.read ~format:Obs.Recorder.format_tag dir with
      | Ok m -> m
      | Error msg -> die "%s" msg
    in
    let str_field name =
      match Option.bind (Obs.Json.member name manifest) Obs.Json.to_str with
      | Some s -> s
      | None -> die "manifest.json: missing %S" name
    in
    let trigger = str_field "trigger" in
    let version = str_field "version" in
    (* trace.json: Chrome trace-event schema — a traceEvents array whose
       entries all carry a name and a phase. *)
    let trace =
      match Obs.Json.of_string (read "trace.json") with
      | j -> j
      | exception Failure msg -> die "trace.json: %s" msg
    in
    let tevents =
      match Obs.Json.member "traceEvents" trace with
      | Some (Obs.Json.List l) -> l
      | _ -> die "trace.json: missing traceEvents array"
    in
    let slices =
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str,
              Option.bind (Obs.Json.member "name" e) Obs.Json.to_str )
          with
          | Some ph, Some name ->
              if ph <> "X" then None
              else (
                match
                  ( Option.bind (Obs.Json.member "ts" e) Obs.Json.to_float,
                    Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float )
                with
                | Some ts, Some dur -> Some (name, ts, dur)
                | _ -> die "trace.json: complete slice %S without ts/dur" name)
          | _ -> die "trace.json: event without name and ph")
        tevents
    in
    (match Obs.Prom.lint (read "metrics.prom") with
    | Ok () -> ()
    | Error msg -> die "metrics.prom: %s" msg);
    let jsonl_lines fname =
      let lines = String.split_on_char '\n' (read fname) in
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            match Obs.Json.of_string line with
            | _ -> ()
            | exception Failure msg -> die "%s:%d: %s" fname (i + 1) msg)
        lines;
      List.length (List.filter (fun l -> String.trim l <> "") lines)
    in
    let n_events = jsonl_lines "events.jsonl" in
    let n_snaps = jsonl_lines "snapshots.jsonl" in
    (* ---- validated; human summary from here on ---- *)
    Printf.printf "bundle %s\n" dir;
    Printf.printf "  trigger  %s%s\n" trigger
      (match Option.bind (Obs.Json.member "rule" manifest) Obs.Json.to_str with
      | Some r -> Printf.sprintf " (rule %s)" r
      | None -> "");
    Printf.printf "  version  %s\n" version;
    (match Obs.Json.member "written_unix_s" manifest with
    | Some j -> (
        match Obs.Json.to_float j with
        | Some s ->
            let tm = Unix.gmtime s in
            Printf.printf "  written  %04d-%02d-%02dT%02d:%02d:%02dZ\n" (tm.Unix.tm_year + 1900)
              (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
        | None -> ())
    | None -> ());
    (match Option.bind (Obs.Json.member "window_s" manifest) Obs.Json.to_float with
    | Some w -> Printf.printf "  window   %gs of recording, %d snapshots\n" w n_snaps
    | None -> Printf.printf "  window   recorder off, %d snapshots\n" n_snaps);
    (match Obs.Json.member "detail" manifest with
    | Some (Obs.Json.Obj ((_ :: _) as fields)) ->
        Printf.printf "  detail   %s\n"
          (String.concat " "
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "%s=%s" k
                    (match v with Obs.Json.Str s -> s | other -> Obs.Json.to_string other))
                fields))
    | _ -> ());
    Printf.printf "  files    %d validated, %d trace events, %d event-log records\n"
      (List.length files) (List.length tevents) n_events;
    let by_dur = List.sort (fun (_, _, d1) (_, _, d2) -> compare d2 d1) slices in
    (match by_dur with
    | [] -> ()
    | _ ->
        Printf.printf "\nslowest spans:\n";
        List.iteri
          (fun i (name, _, dur) ->
            if i < 5 then Printf.printf "  %-32s %10.3f ms\n" name (dur /. 1e3))
          by_dur);
    (* GC pressure during the incident: how much gc.* time lands inside the
       slowest server-side span. *)
    let prefixed p n = String.length n >= String.length p && String.sub n 0 (String.length p) = p in
    (match List.filter (fun (n, _, _) -> prefixed "server." n) by_dur with
    | [] -> ()
    | (name, ts, dur) :: _ ->
        let gc_us =
          List.fold_left
            (fun acc (n, gts, gdur) ->
              if prefixed "gc." n then
                let lo = Float.max ts gts and hi = Float.min (ts +. dur) (gts +. gdur) in
                acc +. Float.max 0.0 (hi -. lo)
              else acc)
            0.0 slices
        in
        Printf.printf "\ngc overlap: %.3f ms of gc.* inside the slowest server span (%s, %.3f ms)\n"
          (gc_us /. 1e3) name (dur /. 1e3));
    (* Replay: the captured instance re-solved locally proves the bundle is
       actionable, and gives a second opinion on the makespan. *)
    if Sys.file_exists (path "instance.hg") then begin
      let h = load_instance (path "instance.hg") in
      Printf.printf "\nreplay: instance.hg — %d tasks, %d processors\n" h.Hyper.Graph.n1
        h.Hyper.Graph.n2;
      let t0 = Unix.gettimeofday () in
      match Semimatch.Portfolio.solve ~jobs h with
      | r ->
          Printf.printf "  portfolio best makespan %g (winner %s, lower bound %g) in %.2fs\n"
            r.Semimatch.Portfolio.best_makespan
            (Semimatch.Portfolio.solver_name r.Semimatch.Portfolio.winner)
            r.Semimatch.Portfolio.lower_bound
            (Unix.gettimeofday () -. t0)
      | exception (Failure msg | Invalid_argument msg) -> die "replay failed: %s" msg
    end;
    Printf.printf "\nbundle OK\n"
    end
  in
  let bundle =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:
               "Diagnostic bundle, daemon $(b,--persist-dir), or binary edge-stream file to \
                validate.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Validate a diagnostic bundle (manifest, trace schema, Prometheus lint, event log, \
          local replay of the captured instance), a daemon persist dir (checkpoint \
          manifests, journal integrity, dry-run crash recovery), or a binary edge-stream \
          file (header, chunk framing, truncation); exits 2 on any structural problem")
    Term.(const run $ jobs_arg $ bundle)

(* version: one line for bug reports and CI log headers — package version
   (from semimatch.opam via dune's %{version:semimatch}) plus the build
   features that change behavior and the CRC-32 kernel this CPU runs. *)
let version_cmd =
  let run () =
    Printf.printf "semimatch %s ocaml=%s domains=%d obs=%s crc32=%s\n" Cli_version.version
      Sys.ocaml_version
      (Domain.recommended_domain_count ())
      (if Obs.is_enabled () then "on" else "available")
      Hyper.Crc32.kernel
  in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the package version and build features on one line")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "semimatch_cli" ~doc:"Semi-matching scheduling under resource constraints"
  in
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 1_000_000;
  let code =
    Cmd.eval ~err
      (Cmd.group info
         [
           gen_cmd; gen_sp_cmd; info_cmd; solve_cmd; compare_cmd; profile_cmd; simulate_cmd;
           exact_cmd; serve_cmd; client_cmd; loadgen_cmd; doctor_cmd; version_cmd;
         ])
  in
  Format.pp_print_flush err ();
  (* Cmdliner reports a usage error (unknown flag, bad value) as 124, its
     diagnostic followed by a usage hint; the CLI's error contract is the
     one diagnostic line and exit 2 across the board. *)
  if code = Cmd.Exit.cli_error then begin
    prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
    exit 2
  end;
  prerr_string (Buffer.contents buf);
  exit code
