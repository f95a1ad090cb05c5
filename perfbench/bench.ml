(* The benchmark executable: runs one workload for a fixed time and prints
   human-readable tables followed, as the last line of standard output, by
   one JSON object {correct, attempted, failed, metrics}.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones from a traced run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --work DIR --cli PATH

   [--work] is a scratch directory for stream files and the daemon's
   persist dir; [--cli] is the semimatch_cli executable the daemon workload
   spawns.  perfbench/run.py builds both and passes them in. *)

open Measure

let e2e_units =
  [
    ("setup_s", "s");
    ("solve_p50_ms", "ms");
    ("solve_tail_ms", "ms");
    ("request_p50_ms", "ms");
    ("request_tail_ms", "ms");
    ("makespan_ratio", "ratio");
    ("edges_per_s", "edges/s");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac");
  ]

(* Every per-layer metric, in print order.  A workload that bypasses a
   layer reports 0 for it. *)
let layer_units =
  [
    ("trace.overhead_pct", "%");
    ("hyper.io.parse_ms", "ms");
    ("semimatch.lower_bound_ms", "ms");
    ("semimatch.greedy.sgh_ms", "ms");
    ("semimatch.greedy.egh_ms", "ms");
    ("semimatch.greedy.vgh_ms", "ms");
    ("semimatch.greedy.evg_ms", "ms");
    ("semimatch.greedy.vgh_over_sgh", "ratio");
    ("semimatch.greedy.evg_over_sgh", "ratio");
    ("semimatch.local_search.refine_ms", "ms");
    ("semimatch.local_search.moves", "count");
    ("semimatch.annealing.solve_ms", "ms");
    ("semimatch.portfolio.other_ms", "ms");
    ("hyper.to_bipartite_ms", "ms");
    ("semimatch.exact.solve_ms", "ms");
    ("semimatch.exact.deadlines_tried", "count");
    ("matching.hk.one_matching_ms", "ms");
    ("matching.hk.phases", "count");
    ("matching.augmentations", "count");
    ("semimatch.exact.engine.bs-dfs_ms", "ms");
    ("semimatch.exact.engine.bs-hk_ms", "ms");
    ("semimatch.exact.engine.bs-pr_ms", "ms");
    ("semimatch.exact.engine.harvey_ms", "ms");
    ("semimatch.exact.engine.gen-hk_ms", "ms");
    ("semimatch.exact.engine.dnc_ms", "ms");
    ("stream.ingest.solve_ms", "ms");
    ("hyper.stream_io.read_ns_per_edge", "ns");
    ("stream.kr.passes", "count");
    ("stream.kr.pass_work_ns_per_edge", "ns");
    ("stream.kr.state_words", "words");
    ("stream.ingest.materialize_ms", "ms");
    ("stream.ingest.incore_race_ms", "ms");
    ("daemon.add_task_p50_ms", "ms");
    ("daemon.add_task_tail_ms", "ms");
    ("daemon.resolve_p50_ms", "ms");
    ("daemon.resolve_tail_ms", "ms");
    ("daemon.ping_tail_ms", "ms");
    ("daemon.lateness_p99_ms", "ms");
    ("daemon.lateness_max_ms", "ms");
    ("server.phase.parse_us.p50", "us");
    ("server.phase.parse_us.p99", "us");
    ("server.phase.queue_wait_us.p50", "us");
    ("server.phase.queue_wait_us.p99", "us");
    ("server.phase.solve_us.p50", "us");
    ("server.phase.solve_us.p99", "us");
    ("server.phase.reply_us.p50", "us");
    ("server.phase.reply_us.p99", "us");
    ("server.batch_size", "count");
    ("server.resolve.degraded_frac", "frac");
    ("server.session.add_tasks_ms", "ms");
    ("server.session.remove_task_ms", "ms");
    ("server.session.resolve_ms", "ms");
    ("server.journal.append_us", "us");
    ("server.journal.sync_ms", "ms");
  ]

let workloads = [ "mp-portfolio"; "sp-exact"; "stream-ingest"; "daemon-mixed" ]

(* Put a workload's metrics into the declared order, filling the layers it
   bypasses with 0 and refusing any undeclared name or unit. *)
let complete ~fill declared got =
  List.iter
    (fun m ->
      match List.assoc_opt m.m_name declared with
      | Some u when u = m.m_unit -> ()
      | Some u -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" m.m_name m.m_unit u)
      | None -> failwith ("undeclared metric " ^ m.m_name))
    got;
  List.map
    (fun (name, u) ->
      match List.find_opt (fun m -> m.m_name = name) got with
      | Some m -> m
      | None when fill -> metric name u 0.0
      | None -> failwith ("workload did not report " ^ name))
    declared

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  (* a daemon that dies mid-write must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let work = ref "" and cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--cli", Arg.Set_string cli, "PATH semimatch_cli executable (daemon-mixed)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR --cli PATH";
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  if !work = "" then (prerr_endline "bench.exe: --work DIR is required"; exit 2);
  if seconds <= 0.0 then (prerr_endline "bench.exe: --seconds S is required"; exit 2);
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" !workload seed seconds
    (if trace then 1 else 0);
  let r =
    match !workload with
    | "mp-portfolio" -> Wl_mp.run ~seed ~seconds ~trace
    | "sp-exact" -> Wl_sp.run ~seed ~seconds ~trace
    | "stream-ingest" -> Wl_stream.run ~seed ~seconds ~trace ~work:!work
    | "daemon-mixed" -> Wl_daemon.run ~seed ~seconds ~trace ~work:!work ~cli:!cli
    | w ->
        Printf.eprintf "bench.exe: unknown workload %S (expected one of %s)\n" w
          (String.concat ", " workloads);
        exit 2
  in
  if trace then begin
    let path =
      Filename.concat (Filename.dirname !work) (Printf.sprintf "trace-%s-seed%d.json" !workload seed)
    in
    Trace.write_chrome path;
    Printf.printf "\nspans written to %s\n" path
  end;
  let metrics = if trace then complete ~fill:true layer_units r.layers else complete ~fill:false e2e_units r.e2e in
  Printf.printf "\n%s metrics (seed %d):\n" (if trace then "per-layer" else "end-to-end") seed;
  List.iter (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.m_name m.m_value m.m_unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.wrong_answers = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name (json_number m.m_value) m.m_unit)
          metrics))
