(* Obs.Trace: the Chrome trace-event export.  A deterministic Pool run must
   produce slices on at least two domain tracks with paired flow arrows, the
   CLI's --trace file must parse back through Obs.Json with the schema
   fields intact (the acceptance criterion), the event log must capture the
   portfolio's decision points, and the Pool's depth guard must confine a
   leaked span to its task. *)

module J = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let member_str name json = Option.bind (J.member name json) J.to_str
let member_num name json = Option.bind (J.member name json) J.to_float

let events_of json =
  match J.member "traceEvents" json with
  | Some (J.List evs) -> evs
  | _ -> Alcotest.fail "trace has no traceEvents list"

let with_ph ph evs = List.filter (fun e -> member_str "ph" e = Some ph) evs

let distinct_tids evs =
  List.filter_map (member_num "tid") evs |> List.sort_uniq compare

(* Spin for ~[ms] of wall time: long enough that with 2 domains and many
   tasks, the shared task counter reliably spreads tasks over both
   tracks. *)
let busy ~ms () =
  let t0 = Unix.gettimeofday () in
  let spin = ref 0 in
  while (Unix.gettimeofday () -. t0) *. 1e3 < ms do
    for i = 1 to 1_000 do
      spin := !spin + (i land 3)
    done
  done;
  ignore (Sys.opaque_identity !spin)

let test_pool_trace_two_tracks () =
  Obs.with_recording (fun () ->
      let work = Array.init 16 (fun i -> i) in
      let results = Parpool.Pool.map ~jobs:2 ~f:(fun i -> busy ~ms:2.0 (); i * i) work in
      check_int "pool computed" (15 * 15) results.(15);
      let trace = Obs.Trace.to_json () in
      let evs = events_of trace in
      (* Schema: every event carries ph and pid; slices carry ts/dur/tid. *)
      check "every event has ph and pid"
        (List.for_all (fun e -> member_str "ph" e <> None && member_num "pid" e <> None) evs)
        true;
      let slices = with_ph "X" evs in
      check "complete slices present" (slices <> []) true;
      check "slices carry ts, dur and tid"
        (List.for_all
           (fun e -> member_num "ts" e <> None && member_num "dur" e <> None && member_num "tid" e <> None)
           slices)
        true;
      let tasks = List.filter (fun e -> member_str "name" e = Some "pool.task") slices in
      check "at least two domain tracks ran pool tasks"
        (List.length (distinct_tids tasks) >= 2)
        true;
      (* Thread metadata names every track that recorded anything. *)
      let meta = with_ph "M" evs in
      let named_tids =
        List.filter (fun e -> member_str "name" e = Some "thread_name") meta |> distinct_tids
      in
      check "every slice tid has thread metadata"
        (List.for_all (fun tid -> List.mem tid named_tids) (distinct_tids slices))
        true;
      (* Flow arrows: every start has a matching finish with the same id. *)
      let starts = with_ph "s" evs and finishes = with_ph "f" evs in
      check "flow events present" (starts <> []) true;
      let ids evs = List.filter_map (member_num "id") evs in
      List.iter
        (fun id -> check "flow start is paired" (List.mem id (ids finishes)) true)
        (ids starts);
      check "finishes bind to the enclosing slice"
        (List.for_all (fun e -> member_str "bp" e = Some "e") finishes)
        true;
      (* Counter samples ride along. *)
      check "counter track sampled" (with_ph "C" evs <> []) true)

(* Acceptance criterion, end to end: solve --jobs 4 --trace FILE through the
   real CLI, then parse the file with Obs.Json and validate the schema. *)
let test_cli_solve_trace_golden () =
  Test_cli.with_temp (fun inst ->
      let trace_path = Filename.temp_file "semimatch_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists trace_path then Sys.remove trace_path)
        (fun () ->
          ignore
            (Test_cli.expect_ok
               (Test_cli.run_capture
                  [
                    "gen"; "--tasks"; "400"; "--procs"; "48"; "--groups"; "8"; "--weights";
                    "related"; "--seed"; "11"; "-o"; inst;
                  ]));
          ignore
            (Test_cli.expect_ok
               (Test_cli.run_capture
                  [ "solve"; inst; "--jobs"; "4"; "--trace"; trace_path ]));
          let ic = open_in trace_path in
          let content =
            Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
          in
          let trace = J.of_string content in
          let evs = events_of trace in
          check "trace is non-trivial" (List.length evs > 10) true;
          let slices = with_ph "X" evs in
          check "slices have the timing fields"
            (List.for_all
               (fun e ->
                 member_str "name" e <> None && member_num "ts" e <> None
                 && member_num "dur" e <> None && member_num "pid" e <> None
                 && member_num "tid" e <> None)
               slices)
            true;
          check "at least two distinct domain tracks"
            (List.length (distinct_tids evs) >= 2)
            true;
          let starts = with_ph "s" evs and finishes = with_ph "f" evs in
          check "at least one flow event" (starts <> []) true;
          let ids evs = List.filter_map (member_num "id") evs in
          List.iter
            (fun id -> check "flow ids pair up" (List.mem id (ids finishes)) true)
            (ids starts)))

let small_instance () =
  let rng = Randkit.Prng.create ~seed:5 in
  Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:120 ~p:16 ~dv:4 ~dh:3 ~g:4
    ~weights:Hyper.Weights.Related

let test_portfolio_events () =
  Obs.with_recording (fun () ->
      let h = small_instance () in
      ignore (Semimatch.Portfolio.solve ~jobs:2 h);
      let records = Obs.Events.records () in
      check "events recorded" (records <> []) true;
      let names = List.map (fun r -> r.Obs.Events.e_name) records in
      check "portfolio completion events present"
        (List.mem "portfolio.solver.done" names)
        true;
      check "local-search pass events present" (List.mem "local_search.pass" names) true;
      (* Every jsonl line parses and carries the schema fields. *)
      let lines =
        String.split_on_char '\n' (Obs.Events.render_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      check_int "one line per record" (List.length records) (List.length lines);
      List.iter
        (fun line ->
          let json = J.of_string line in
          check "event rows carry event/level/dom/ts"
            (member_str "event" json <> None && member_str "level" json <> None
            && member_num "dom" json <> None && member_num "ts_ns" json <> None)
            true)
        lines;
      (* Render-time filtering: a Warn-only view contains no debug rows. *)
      let warn_only = Obs.Events.render_jsonl ~min_level:Obs.Events.Warn () in
      String.split_on_char '\n' warn_only
      |> List.iter (fun l ->
             if l <> "" then
               check "min_level filters" (member_str "level" (J.of_string l) = Some "warn") true))

(* A task that leaks a span (enter without exit) must not skew the depth of
   anything recorded after it: the Pool's depth guard restores the worker's
   nesting depth at the task boundary. *)
let test_pool_depth_guard () =
  Obs.with_recording (fun () ->
      let work = Array.init 8 (fun i -> i) in
      let _ =
        Parpool.Pool.map ~jobs:2
          ~f:(fun i ->
            if i land 1 = 0 then ignore (Obs.Span.enter "leaky");
            i)
          work
      in
      ignore (Obs.Span.timed "after.pool" (fun () -> ()));
      let after =
        List.filter (fun r -> r.Obs.Span.r_name = "after.pool") (Obs.Span.records ())
      in
      check "post-pool span recorded" (after <> []) true;
      check "leaked spans did not inflate the depth"
        (List.for_all (fun r -> r.Obs.Span.depth = 0) after)
        true)

(* Runtime_events correlation: forced GCs under an active subscription must
   land as gc.* spans on a dedicated track, named distinctly from domain
   tracks in the trace metadata. *)
let test_runtime_gc_track () =
  Obs.with_recording (fun () ->
      Obs.Runtime.start ();
      check "subscription is live" true (Obs.Runtime.started ());
      (* Generate minor collections, then drain the ring. *)
      for _ = 1 to 50 do
        ignore (Sys.opaque_identity (Array.make 20_000 0.0));
        Gc.minor ()
      done;
      let consumed = ref (Obs.Runtime.poll ()) in
      let retries = ref 0 in
      while !consumed = 0 && !retries < 20 do
        Gc.minor ();
        incr retries;
        consumed := Obs.Runtime.poll ()
      done;
      Obs.Runtime.stop ();
      check "poll consumed runtime events" true (!consumed > 0);
      let gc_spans =
        List.filter
          (fun r ->
            String.length r.Obs.Span.r_name >= 3 && String.sub r.Obs.Span.r_name 0 3 = "gc.")
          (Obs.Span.records ())
      in
      check "gc spans recorded" true (gc_spans <> []);
      check "gc spans live on the offset tracks" true
        (List.for_all (fun r -> r.Obs.Span.dom >= Obs.Runtime.track_offset) gc_spans);
      check "gc spans are well-formed intervals" true
        (List.for_all (fun r -> Int64.compare r.Obs.Span.stop_ns r.Obs.Span.start_ns >= 0) gc_spans);
      (* The trace export names those tracks "gc-ring-N" and keeps engine
         spans on ordinary "domain-N" tracks. *)
      ignore (Obs.Span.timed "engine.work" (fun () -> Sys.opaque_identity ()));
      let evs = events_of (Obs.Trace.to_json ()) in
      let thread_names =
        with_ph "M" evs
        |> List.filter (fun e -> member_str "name" e = Some "thread_name")
        |> List.filter_map (fun e ->
               Option.bind (J.member "args" e) (fun a -> member_str "name" a))
      in
      let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
      check "a gc-ring track is named" true (List.exists (is_prefix "gc-ring-") thread_names);
      check "domain tracks keep their names" true
        (List.exists (is_prefix "domain-") thread_names);
      let gc_slices =
        with_ph "X" evs
        |> List.filter (fun e ->
               match member_str "name" e with Some n -> is_prefix "gc." n | None -> false)
      in
      check "gc slices exported" true (gc_slices <> []))

let suite =
  [
    Alcotest.test_case "pool trace has two tracks and flows" `Quick test_pool_trace_two_tracks;
    Alcotest.test_case "CLI solve --trace golden schema" `Quick test_cli_solve_trace_golden;
    Alcotest.test_case "portfolio events log" `Quick test_portfolio_events;
    Alcotest.test_case "pool depth guard" `Quick test_pool_depth_guard;
    Alcotest.test_case "runtime GC events land on gc-ring tracks" `Quick test_runtime_gc_track;
  ]
