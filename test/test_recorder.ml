(* Flight recorder and anomaly-trigger tests: the rule spec grammar, the
   per-kind cooldown, each observer, the heap-growth poll with a synthetic
   curve, the watchdog bracket (live and post-hoc), the bounded snapshot
   ring, and bundle writing — then the whole stack end-to-end through the
   loopback engine with a deliberately stalled solve. *)

module A = Obs.Anomaly
module R = Obs.Recorder
module J = Obs.Json
module L = Server.Loopback

let check = Alcotest.(check bool)

(* --- rule specs --------------------------------------------------------- *)

let test_rule_specs () =
  (* Every rule round-trips through its own spec rendering. *)
  List.iter
    (fun spec ->
      Alcotest.(check string)
        ("round-trip " ^ spec) spec
        (A.rule_to_string (A.rule_of_string spec)))
    [
      "latency:250"; "latency:resolve:1000"; "overbudget:4"; "queue:32"; "busy:64@5";
      "heap:512@10"; "stall:5000";
    ];
  Alcotest.(check int) "comma list" 3 (List.length (A.rules_of_string "latency:1, stall:2 ,queue:3"));
  Alcotest.(check int) "empty segments skipped" 0 (List.length (A.rules_of_string " , ,"));
  List.iter
    (fun bad ->
      match A.rule_of_string bad with
      | _ -> Alcotest.failf "accepted bad spec %S" bad
      | exception Failure msg ->
          check ("error names the spec: " ^ msg) true (String.length msg > 0))
    [ "latency"; "latency:-3"; "latency:abc"; "overbudget:0.5"; "queue:0"; "busy:5";
      "heap:512"; "stall:0"; "wat:1"; "" ];
  (* The shipped default set parses back from its own rendering. *)
  List.iter
    (fun r ->
      Alcotest.(check string) "default round-trips" (A.rule_to_string r)
        (A.rule_to_string (A.rule_of_string (A.rule_to_string r))))
    A.default_rules

(* --- observers and cooldown --------------------------------------------- *)

let test_latency_and_cooldown () =
  let t = A.create ~cooldown_s:3600.0 [ A.rule_of_string "latency:100" ] in
  check "under threshold" true (A.observe_request t ~op:"ping" ~ms:50.0 = None);
  check "over threshold fires" true (A.observe_request t ~op:"ping" ~ms:150.0 <> None);
  check "cooldown suppresses" true (A.observe_request t ~op:"ping" ~ms:150.0 = None);
  Alcotest.(check int) "one firing counted" 1 (A.firings t);
  check "last firing recorded" true
    (match A.last_firing t with Some ("latency:100", _) -> true | _ -> false);
  (* Zero cooldown: every breach fires. *)
  let t0 = A.create ~cooldown_s:0.0 [ A.rule_of_string "latency:100" ] in
  check "fires" true (A.observe_request t0 ~op:"a" ~ms:200.0 <> None);
  check "fires again" true (A.observe_request t0 ~op:"b" ~ms:200.0 <> None);
  (* Op-scoped rule ignores other ops. *)
  let ts = A.create ~cooldown_s:0.0 [ A.rule_of_string "latency:resolve:100" ] in
  check "other op ignored" true (A.observe_request ts ~op:"ping" ~ms:500.0 = None);
  check "named op fires" true (A.observe_request ts ~op:"resolve" ~ms:500.0 <> None)

let test_budget_queue_busy () =
  let t = A.create ~cooldown_s:0.0 [ A.rule_of_string "overbudget:2" ] in
  check "within budget" true (A.observe_solve t ~op:"resolve" ~budget_ms:10.0 ~elapsed_ms:15.0 = None);
  check "over factor fires" true
    (A.observe_solve t ~op:"resolve" ~budget_ms:10.0 ~elapsed_ms:25.0 <> None);
  check "zero budget never fires" true
    (A.observe_solve t ~op:"resolve" ~budget_ms:0.0 ~elapsed_ms:1e6 = None);
  let q = A.create ~cooldown_s:0.0 [ A.rule_of_string "queue:8" ] in
  check "shallow queue" true (A.observe_queue q ~pending:7 = None);
  check "deep queue fires" true (A.observe_queue q ~pending:8 <> None);
  let b = A.create ~cooldown_s:0.0 [ A.rule_of_string "busy:3@10" ] in
  check "first busy" true (A.observe_busy b = None);
  check "second busy" true (A.observe_busy b = None);
  check "third busy fires" true (A.observe_busy b <> None)

let test_heap_poll_synthetic () =
  let t = A.create ~cooldown_s:0.0 [ A.rule_of_string "heap:1@0.3" ] in
  check "baseline sample" true (A.poll ~heap_bytes:1e6 t = None);
  Unix.sleepf 0.16;
  (* Flat heap: no firing however long the baseline. *)
  check "flat heap quiet" true (A.poll ~heap_bytes:1e6 t = None);
  Unix.sleepf 0.02;
  (* +10MB over ~0.18s is far above 1 MB/s. *)
  check "growth fires" true (A.poll ~heap_bytes:11e6 t <> None);
  (* A rule set without heap rules never samples. *)
  let n = A.create ~cooldown_s:0.0 [ A.rule_of_string "latency:1" ] in
  check "no heap rule, no firing" true (A.poll ~heap_bytes:1e12 n = None)

(* --- watchdog ----------------------------------------------------------- *)

let test_watchdog_live_and_posthoc () =
  let t = A.create ~cooldown_s:0.0 [ A.rule_of_string "stall:60" ] in
  check "idle engine is never stuck" true (A.check_stuck t = None);
  A.solve_begin t ~op:"resolve" ~session:"s1" ~request:{|{"op":"resolve"}|} ();
  check "fresh solve not yet stuck" true (A.check_stuck t = None);
  Unix.sleepf 0.12;
  (match A.check_stuck t with
  | None -> Alcotest.fail "live check missed a 120ms silence against a 60ms rule"
  | Some f ->
      check "live phase tagged" true (List.assoc_opt "phase" f.A.f_detail = Some (J.Str "live"));
      check "request captured" true
        (List.assoc_opt "request" f.A.f_detail = Some (J.Str {|{"op":"resolve"}|})));
  let w = A.watchdog t in
  check "watchdog sees the op" true (w.A.w_op = Some "resolve");
  check "silence measured" true (w.A.w_silent_ms >= 100.0);
  check "post-hoc fires too" true (A.solve_end t <> None);
  check "bracket closed" true ((A.watchdog t).A.w_inflight = false);
  (* A solve that beats steadily never trips either check. *)
  A.solve_begin t ~op:"resolve" ~request:"r" ();
  for _ = 1 to 5 do
    Unix.sleepf 0.02;
    A.beat t
  done;
  check "beating solve not stuck" true (A.check_stuck t = None);
  check "no post-hoc firing" true (A.solve_end t = None)

(* A stall that ends before the bracket closes must still be caught post
   hoc: the beat that ended the silence recorded its length. *)
let test_posthoc_after_recovery () =
  Obs.with_recording (fun () ->
      let t = A.create ~cooldown_s:0.0 [ A.rule_of_string "stall:60" ] in
      A.solve_begin t ~op:"resolve" ~request:"r" ();
      Unix.sleepf 0.12;
      (* Recovery: telemetry activity bumps the global heartbeat... *)
      Obs.Events.emit "recovered" [];
      Unix.sleepf 0.01;
      (* ...yet the earlier silence still fires when the bracket closes. *)
      match A.solve_end t with
      | None -> Alcotest.fail "post-hoc check forgot a stall that ended before solve_end"
      | Some f ->
          check "post phase tagged" true (List.assoc_opt "phase" f.A.f_detail = Some (J.Str "post")))

(* --- recorder ----------------------------------------------------------- *)

let with_reset_rings f =
  Fun.protect
    ~finally:(fun () ->
      R.stop ();
      Obs.Span.set_capacity 4096;
      Obs.Events.set_capacity 8192)
    f

let test_snapshot_ring_bounded () =
  with_reset_rings (fun () ->
      R.start
        ~config:
          {
            R.default_config with
            R.window_s = 5.0;
            snapshot_every_s = 0.01;
            max_snapshots = 3;
          }
        ();
      check "recorder running" true (R.started ());
      for i = 1 to 6 do
        Unix.sleepf 0.015;
        check
          (Printf.sprintf "tick %d due" i)
          true
          (R.tick ~prom:(fun () -> Printf.sprintf "snap %d" i) ())
      done;
      let snaps = R.snapshots () in
      Alcotest.(check int) "ring bounded" 3 (List.length snaps);
      check "oldest evicted, newest kept" true
        (match List.rev snaps with s :: _ -> s.R.snap_prom = "snap 6" | [] -> false);
      check "immediate re-tick not due" true (not (R.tick ~prom:(fun () -> "x") ())));
  check "stopped recorder never ticks" true (not (R.tick ()))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir f =
  let dir = Filename.temp_file "semimatch_bundle" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_write_bundle () =
  Obs.with_recording (fun () ->
      with_reset_rings (fun () ->
          with_temp_dir (fun dir ->
              R.start ~config:{ R.default_config with R.snapshot_every_s = 0.01 } ();
              Obs.Events.emit "bundle.test" [ Obs.Events.int "x" 1 ];
              ignore (Obs.Span.timed "bundle.span" (fun () -> Sys.opaque_identity ()));
              Unix.sleepf 0.02;
              ignore (R.tick ());
              let bundle =
                match
                  R.write_bundle ~dir ~trigger:"unit test!" ~rule:"latency:1"
                    ~detail:[ ("why", J.Str "test") ]
                    ~extra:[ ("request.json", {|{"op":"x"}|}) ]
                    ~version:"t1" ()
                with
                | Ok b -> b
                | Error msg -> Alcotest.failf "write_bundle failed: %s" msg
              in
              check "trigger sanitized in dir name" true
                (not (String.contains (Filename.basename bundle) '!'));
              List.iter
                (fun f ->
                  check (f ^ " written") true (Sys.file_exists (Filename.concat bundle f)))
                [ "manifest.json"; "trace.json"; "events.jsonl"; "metrics.prom";
                  "snapshots.jsonl"; "request.json" ];
              let manifest = J.of_string (read_file (Filename.concat bundle "manifest.json")) in
              check "format tag" true (J.member "format" manifest = Some (J.Str R.format_tag));
              check "trigger recorded" true
                (J.member "trigger" manifest = Some (J.Str "unit test!"));
              check "rule recorded" true (J.member "rule" manifest = Some (J.Str "latency:1"));
              (* Listed byte counts match the files on disk. *)
              (match J.member "files" manifest with
              | Some (J.List files) ->
                  check "extra file listed" true (List.length files = 5);
                  List.iter
                    (fun f ->
                      let name = Option.get (Option.bind (J.member "name" f) J.to_str) in
                      let bytes =
                        int_of_float (Option.get (Option.bind (J.member "bytes" f) J.to_float))
                      in
                      Alcotest.(check int)
                        (name ^ " size matches manifest")
                        bytes
                        (String.length (read_file (Filename.concat bundle name))))
                    files
              | _ -> Alcotest.fail "manifest lacks files list");
              let second =
                match R.write_bundle ~dir ~trigger:"unit test!" ~version:"t1" () with
                | Ok b -> b
                | Error msg -> Alcotest.failf "second bundle failed: %s" msg
              in
              check "bundle dirs unique" true (bundle <> second));
          (* An unwritable destination is an Error, not an exception. *)
          match R.write_bundle ~dir:"/dev/null/nope" ~trigger:"x" ~version:"t" () with
          | Ok _ -> Alcotest.fail "bundle written under /dev/null"
          | Error _ -> ()))

(* --- loopback engine integration ---------------------------------------- *)

let line fields = J.to_string (J.Obj fields)

let tiny () =
  Hyper.Graph.create ~n1:3 ~n2:3
    ~hyperedges:
      [
        (0, [| 0 |], 2.0);
        (0, [| 1 |], 2.0);
        (1, [| 1 |], 1.0);
        (1, [| 2 |], 1.0);
        (2, [| 0; 1 |], 1.0);
        (2, [| 2 |], 3.0);
      ]

let load_line ~session h =
  line
    [ ("op", J.Str "load"); ("session", J.Str session); ("instance", J.Str (Hyper.Io.to_string h)) ]

let is_ok reply = J.member "ok" (J.of_string reply) = Some (J.Bool true)

let expect_ok reply =
  if not (is_ok reply) then Alcotest.failf "expected ok reply, got %s" reply;
  reply

(* A deliberately stalled resolve trips the no-progress rule and produces a
   complete bundle holding the captured instance; a fast run under the same
   rules produces nothing. *)
let test_stalled_solve_bundles () =
  Obs.with_recording (fun () ->
      with_reset_rings (fun () ->
          with_temp_dir (fun dir ->
              R.start ();
              let anomaly = A.create [ A.rule_of_string "stall:80" ] in
              (* The stall plan mirrors Faults ("stall:P@T+D"): reuse its
                 duration for the injected sleep. *)
              let plan = Semimatch.Faults.of_string "stall:0@0+0.12" in
              let stall_s =
                match plan with
                | [ Semimatch.Faults.Stall { dur; _ } ] -> dur
                | _ -> Alcotest.fail "unexpected stall plan shape"
              in
              let before_solve raw =
                if Test_cli.contains ~needle:{|"resolve"|} raw then Unix.sleepf stall_s
              in
              let lb = L.create (Server.Engine.create ~anomaly ~bundle_dir:dir ~before_solve ()) in
              ignore (expect_ok (L.request lb (load_line ~session:"s" (tiny ()))));
              ignore
                (expect_ok
                   (L.request lb
                      (line
                         [
                           ("op", J.Str "resolve"); ("session", J.Str "s");
                           ("budget_ms", J.Num 1e7);
                         ])));
              Alcotest.(check int) "one bundle written" 1 (Server.Engine.bundles_written (L.engine lb));
              let bundle =
                match Server.Engine.last_bundle (L.engine lb) with
                | Some b -> b
                | None -> Alcotest.fail "no bundle recorded"
              in
              List.iter
                (fun f ->
                  check (f ^ " present") true (Sys.file_exists (Filename.concat bundle f)))
                [ "manifest.json"; "trace.json"; "events.jsonl"; "metrics.prom"; "request.json";
                  "instance.hg"; "session.json" ];
              (* The captured instance replays: same graph, same solve. *)
              let captured = Hyper.Io.load (Filename.concat bundle "instance.hg") in
              let replay = Semimatch.Portfolio.solve captured in
              let direct = Semimatch.Portfolio.solve (tiny ()) in
              Alcotest.(check (float 1e-9))
                "replayed makespan matches the live instance"
                direct.Semimatch.Portfolio.best_makespan replay.Semimatch.Portfolio.best_makespan;
              let manifest = J.of_string (read_file (Filename.concat bundle "manifest.json")) in
              check "stall trigger" true (J.member "trigger" manifest = Some (J.Str "stall")))))

let test_fast_run_fires_nothing () =
  Obs.with_recording (fun () ->
      with_temp_dir (fun dir ->
          let anomaly = A.create [ A.rule_of_string "stall:5000"; A.rule_of_string "latency:5000" ] in
          let lb = L.create (Server.Engine.create ~anomaly ~bundle_dir:dir ~jobs:1 ()) in
          ignore (expect_ok (L.request lb (load_line ~session:"s" (tiny ()))));
          ignore
            (expect_ok
               (L.request lb
                  (line
                     [
                       ("op", J.Str "resolve"); ("session", J.Str "s"); ("budget_ms", J.Num 1e7);
                     ])));
          ignore (expect_ok (L.request lb (line [ ("op", J.Str "ping") ])));
          Server.Engine.tick (L.engine lb);
          Alcotest.(check int) "no firings" 0 (A.firings anomaly);
          Alcotest.(check int) "no bundles" 0 (Server.Engine.bundles_written (L.engine lb));
          check "bundle dir untouched" true (Array.length (Sys.readdir dir) = 0)))

let test_health_and_dump_ops () =
  Obs.with_recording (fun () ->
      with_reset_rings (fun () ->
          with_temp_dir (fun dir ->
              R.start ();
              let anomaly = A.create [ A.rule_of_string "stall:5000" ] in
              let lb = L.create (Server.Engine.create ~anomaly ~bundle_dir:dir ()) in
              ignore (expect_ok (L.request lb (load_line ~session:"s" (tiny ()))));
              (* health: cheap, in-memory — well under a millisecond even
                 with the recorder running. *)
              let t0 = Unix.gettimeofday () in
              let reply = expect_ok (L.request lb (line [ ("op", J.Str "health") ])) in
              let dt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
              check "health answers under 1ms" true (dt_ms < 1.0);
              let j = J.of_string reply in
              check "ready status" true (J.member "status" j = Some (J.Str "ready"));
              check "watchdog reported" true (J.member "watchdog" j <> None);
              (* The probe itself must not count as the in-flight solve. *)
              check "probe not in-flight" true
                (Option.bind (J.member "watchdog" j) (J.member "inflight")
                = Some (J.Bool false));
              check "anomaly rules reported" true
                (match Option.bind (J.member "anomaly" j) (J.member "rules") with
                | Some (J.List [ J.Str "stall:5000" ]) -> true
                | _ -> false);
              check "recorder reported on" true
                (match Option.bind (J.member "recorder" j) (J.member "enabled") with
                | Some (J.Bool true) -> true
                | _ -> false);
              (* dump: a manual, complete bundle for the named session. *)
              let reply =
                expect_ok
                  (L.request lb (line [ ("op", J.Str "dump"); ("session", J.Str "s") ]))
              in
              let bundle =
                Option.get (Option.bind (J.member "dir" (J.of_string reply)) J.to_str)
              in
              check "manual bundle has the instance" true
                (Sys.file_exists (Filename.concat bundle "instance.hg"));
              let manifest = J.of_string (read_file (Filename.concat bundle "manifest.json")) in
              check "manual trigger" true (J.member "trigger" manifest = Some (J.Str "manual"));
              (* dump of an unknown session is the session error, not a bundle. *)
              let reply = L.request lb (line [ ("op", J.Str "dump"); ("session", J.Str "nope") ]) in
              check "unknown session refused" true (not (is_ok reply));
              Alcotest.(check int)
                "exactly one bundle on disk" 1
                (Array.length (Sys.readdir dir)))))

(* Two add_tasks coalesced into one batch, each slow enough to trip an
   add_task latency rule with no cooldown: each member's bundle must
   capture that member's own request line, not the batch leader's. *)
let test_batch_member_bundles_own_request () =
  Obs.with_recording (fun () ->
      with_temp_dir (fun dir ->
          let anomaly = A.create ~cooldown_s:0.0 [ A.rule_of_string "latency:add_task:1" ] in
          let before_solve raw =
            if Test_cli.contains ~needle:{|"add_task"|} raw then Unix.sleepf 0.005
          in
          let lb = L.create (Server.Engine.create ~anomaly ~bundle_dir:dir ~before_solve ()) in
          ignore (expect_ok (L.request lb (load_line ~session:"s" (tiny ()))));
          let add tag =
            line
              [
                ("id", J.Str tag); ("op", J.Str "add_task"); ("session", J.Str "s");
                ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 0.0 ]); ("weight", J.Num 1.0) ] ]);
              ]
          in
          let a = add "a" and b = add "b" in
          L.post lb a;
          L.post lb b;
          List.iter (fun r -> ignore (expect_ok r)) (L.drain lb);
          Alcotest.(check int) "one bundle per member" 2
            (Server.Engine.bundles_written (L.engine lb));
          let captured =
            Sys.readdir dir |> Array.to_list
            |> List.map (fun bundle ->
                   let path = Filename.concat (Filename.concat dir bundle) "request.json" in
                   match J.member "raw" (J.of_string (read_file path)) with
                   | Some (J.Str raw) -> raw
                   | _ -> Alcotest.failf "bundle %s captured no request" bundle)
            |> List.sort compare
          in
          Alcotest.(check (list string)) "each bundle holds its own request" [ a; b ] captured))

let suite =
  [
    Alcotest.test_case "trigger rule spec grammar" `Quick test_rule_specs;
    Alcotest.test_case "latency rule and cooldown" `Quick test_latency_and_cooldown;
    Alcotest.test_case "budget, queue and busy rules" `Quick test_budget_queue_busy;
    Alcotest.test_case "heap growth poll (synthetic)" `Quick test_heap_poll_synthetic;
    Alcotest.test_case "watchdog live and post-hoc" `Quick test_watchdog_live_and_posthoc;
    Alcotest.test_case "post-hoc stall after recovery" `Quick test_posthoc_after_recovery;
    Alcotest.test_case "snapshot ring bounded" `Quick test_snapshot_ring_bounded;
    Alcotest.test_case "bundle write and manifest" `Quick test_write_bundle;
    Alcotest.test_case "stalled solve produces a bundle" `Quick test_stalled_solve_bundles;
    Alcotest.test_case "fast run fires nothing" `Quick test_fast_run_fires_nothing;
    Alcotest.test_case "health and dump ops" `Quick test_health_and_dump_ops;
    Alcotest.test_case "batch members bundle their own requests" `Quick
      test_batch_member_bundles_own_request;
  ]
