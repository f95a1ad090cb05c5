(* Durability tests: journal framing and torn-tail recovery, checkpoint
   atomicity, idempotency-cache semantics, and the kill -9 chaos harness —
   a real daemon process driven over a Unix socket, killed without warning
   at a random point in a seeded mutating script, restarted on the same
   persist dir, and required to serve session snapshots byte-identical to
   an in-process Loopback replay of exactly the acknowledged prefix.

   Why byte-identity is a sound oracle under every fsync policy: kill -9
   ends the process but loses nothing the kernel already holds, so the
   journal file contains every record whose reply was flushed (the engine
   journals before replying).  The fsync policies differ only in the
   window a *power* loss could lose — which is exactly why the torn-tail
   runs below mangle the journal by hand instead. *)

module J = Obs.Json
module Journal = Server.Journal
module Persist = Server.Persist

let check = Alcotest.(check bool)
let line fields = J.to_string (J.Obj fields)

let field reply name =
  match J.member name (J.of_string reply) with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name reply

let is_ok reply = match field reply "ok" with J.Bool b -> b | _ -> false

let expect_ok reply =
  if not (is_ok reply) then Alcotest.failf "expected ok reply, got %s" reply;
  reply

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Unix.Unix_error _ -> ()) (fun () -> f dir)

(* --- journal framing ----------------------------------------------------- *)

let test_crc32_vector () =
  (* The CRC-32 (IEEE, reflected) check vector. *)
  Alcotest.(check int32) "crc32 check vector" 0xCBF43926l (Journal.crc32 "123456789")

(* A short segment's bytes are pinned, with a digest taken with the OCaml
   CRC so that it shows the C kernel frames the same bytes: an empty
   record, every byte value, a record longer than one CRC block stride and
   a protocol line. *)
let test_journal_golden () =
  with_temp_dir "journal" (fun dir ->
      let path = Filename.concat dir "j.wal" in
      let w = Journal.open_writer ~policy:Journal.Never path in
      List.iter (Journal.append w)
        [
          "";
          String.init 256 Char.chr;
          String.init 1001 (fun i -> Char.chr ((i * 37) land 0xff));
          {|{"op":"add_task","session":"s","procs":[[0,1],[2]],"weights":[1.5,2.0]}|};
        ];
      Journal.close w;
      Alcotest.(check string) "segment digest" "1047364b8931515832f4ac8c5eddbdc5"
        (Digest.to_hex (Digest.file path)))

(* Each append and each fsync is observed once, under the names the
   Prometheus exposition describes. *)
let test_journal_histograms () =
  Obs.with_recording (fun () ->
      Obs.reset ();
      with_temp_dir "journal" (fun dir ->
          let w = Journal.open_writer ~policy:Journal.Always (Filename.concat dir "j.wal") in
          List.iter (Journal.append w) [ "one"; "two"; "three" ];
          Journal.close w);
      let count name = Obs.Metrics.count (Obs.Metrics.histogram name) in
      Alcotest.(check int) "one append_us sample per append" 3 (count "server.journal.append_us");
      Alcotest.(check int) "one sync_ms sample per fsync" 3 (count "server.journal.sync_ms");
      let text = Obs.Prom.render () in
      check "append histogram described" true
        (Test_cli.contains ~needle:"# HELP semimatch_server_journal_append_us Microseconds" text);
      check "sync histogram described" true
        (Test_cli.contains ~needle:"# HELP semimatch_server_journal_sync_ms Milliseconds" text);
      check "exposition lints" true (Obs.Prom.lint text = Ok ()))

let test_journal_roundtrip_and_torn_tail () =
  with_temp_dir "journal" (fun dir ->
      let path = Filename.concat dir "j.wal" in
      let w = Journal.open_writer ~policy:Journal.Always path in
      let payloads = [ "alpha"; ""; String.make 3000 'x'; "{\"op\":\"ping\"}" ] in
      List.iter (Journal.append w) payloads;
      Journal.close w;
      let s = Journal.scan path in
      Alcotest.(check int) "all records back" (List.length payloads)
        (List.length s.Journal.s_records);
      List.iter2
        (fun expected (r : Journal.record) ->
          Alcotest.(check string) "payload survives" expected r.Journal.payload)
        payloads s.Journal.s_records;
      Alcotest.(check int) "no torn bytes" s.Journal.s_total_bytes s.Journal.s_valid_bytes;
      let valid = s.Journal.s_valid_bytes in
      (* A crash mid-append: garbage after the last complete record. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x2a\x00\x00\x00GARBAGE";
      close_out oc;
      let s2 = Journal.scan path in
      Alcotest.(check int) "torn tail keeps the valid prefix" (List.length payloads)
        (List.length s2.Journal.s_records);
      Alcotest.(check int) "valid prefix unchanged" valid s2.Journal.s_valid_bytes;
      check "tail detected" true (s2.Journal.s_total_bytes > s2.Journal.s_valid_bytes);
      Journal.truncate path s2.Journal.s_valid_bytes;
      let s3 = Journal.scan path in
      Alcotest.(check int) "clean after truncation" s3.Journal.s_total_bytes
        s3.Journal.s_valid_bytes;
      (* Appending after recovery keeps working. *)
      let w2 = Journal.open_writer ~policy:Journal.Never path in
      Journal.append w2 "after";
      Journal.close w2;
      let s4 = Journal.scan path in
      Alcotest.(check int) "append after truncate" (List.length payloads + 1)
        (List.length s4.Journal.s_records))

let test_journal_corrupt_middle_stops_scan () =
  with_temp_dir "journal" (fun dir ->
      let path = Filename.concat dir "j.wal" in
      let w = Journal.open_writer ~policy:Journal.Always path in
      Journal.append w "one";
      let cut = (Journal.scan path).Journal.s_valid_bytes in
      Journal.append w "two";
      Journal.close w;
      (* Flip a payload byte of the second record: its CRC no longer
         matches, so the scan must stop after the first record. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (cut + 8) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "T") 0 1);
      Unix.close fd;
      let s = Journal.scan path in
      Alcotest.(check int) "scan stops at the corrupt record" 1
        (List.length s.Journal.s_records);
      Alcotest.(check int) "valid prefix is the first record" cut s.Journal.s_valid_bytes)

(* --- checkpoint atomicity ------------------------------------------------ *)

let session_state () =
  let h =
    Hyper.Graph.create ~n1:2 ~n2:2
      ~hyperedges:[ (0, [| 0 |], 1.0); (1, [| 0; 1 |], 2.0) ]
  in
  let s, _ = Server.Session.of_graph ~id:"s" h in
  Server.Session.snapshot s

let test_checkpoint_atomicity () =
  with_temp_dir "persist" (fun dir ->
      let p, _ = Persist.open_ ~dir ~policy:Journal.Never ~version:"test" in
      let state = session_state () in
      (match Persist.checkpoint p ~sessions:[ ("s", state) ] with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "checkpoint failed: %s" msg);
      Persist.log p ~lines:[ "{\"op\":\"ping\"}" ] ~cached:[];
      Persist.close p;
      (* Simulate a crash mid-checkpoint: a stale tmp dir plus a newer
         checkpoint directory whose manifest never landed (the manifest is
         written last, so its absence means the rename never happened
         either — this models the worst observable wreckage). *)
      let tmp = Filename.concat dir ".ckpt.tmp" in
      Unix.mkdir tmp 0o755;
      Out_channel.with_open_text (Filename.concat tmp "sessions.jsonl") (fun oc ->
          Out_channel.output_string oc "half-written");
      let broken = Filename.concat dir "ckpt-000009" in
      Unix.mkdir broken 0o755;
      Out_channel.with_open_text (Filename.concat broken "sessions.jsonl") (fun oc ->
          Out_channel.output_string oc "{}");
      let r = Persist.load dir in
      (match r.Persist.r_checkpoint with
      | Some name -> Alcotest.(check string) "previous checkpoint still wins" "ckpt-000001" name
      | None -> Alcotest.fail "no checkpoint recovered");
      Alcotest.(check int) "broken checkpoint reported" 1 (List.length r.Persist.r_skipped);
      Alcotest.(check int) "session state intact" 1 (List.length r.Persist.r_sessions);
      Alcotest.(check int) "journal suffix intact" 1 r.Persist.r_records)

(* --- idempotency over loopback ------------------------------------------ *)

let tiny_instance () =
  Hyper.Io.to_string
    (Hyper.Graph.create ~n1:2 ~n2:2
       ~hyperedges:[ (0, [| 0 |], 1.0); (1, [| 0 |], 2.0); (1, [| 1 |], 2.0) ])

let test_idempotency_dedup () =
  Obs.with_recording (fun () ->
      let lb = Server.Loopback.create (Server.Engine.create ()) in
      ignore
        (expect_ok
           (Server.Loopback.request lb
              (line
                 [
                   ("op", J.Str "load"); ("session", J.Str "i");
                   ("instance", J.Str (tiny_instance ()));
                 ])));
      let add =
        line
          [
            ("op", J.Str "add_task"); ("session", J.Str "i");
            ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 1.0 ]); ("weight", J.Num 1.0) ] ]);
            ("idem", J.Str "retry-1");
          ]
      in
      let r1 = expect_ok (Server.Loopback.request lb add) in
      let r2 = expect_ok (Server.Loopback.request lb add) in
      Alcotest.(check string) "duplicate answered with the cached reply verbatim" r1 r2;
      (match Server.Engine.resident (Server.Loopback.engine lb) with
      | [ (_, s) ] ->
          Alcotest.(check int) "mutation applied exactly once" 3 (Server.Session.n_tasks s)
      | _ -> Alcotest.fail "one session expected");
      (* A different key applies normally. *)
      let add2 =
        line
          [
            ("op", J.Str "add_task"); ("session", J.Str "i");
            ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 1.0 ]); ("weight", J.Num 1.0) ] ]);
            ("idem", J.Str "retry-2");
          ]
      in
      ignore (expect_ok (Server.Loopback.request lb add2));
      (match Server.Engine.resident (Server.Loopback.engine lb) with
      | [ (_, s) ] -> Alcotest.(check int) "fresh key applies" 4 (Server.Session.n_tasks s)
      | _ -> Alcotest.fail "one session expected");
      (* Error replies are not cached: a failing mutation retried under the
         same key runs again (and can succeed after the cause is fixed). *)
      let bad =
        line
          [
            ("op", J.Str "remove_task"); ("session", J.Str "i"); ("task", J.Num 999.0);
            ("idem", J.Str "retry-3");
          ]
      in
      check "error reply" false (is_ok (Server.Loopback.request lb bad));
      check "error not cached, runs again" false (is_ok (Server.Loopback.request lb bad));
      (* Two copies posted before one drain: the copy must not ride the
         first's add_task batch; it leads the next step, where the cache
         answers it. *)
      let add5 =
        line
          [
            ("op", J.Str "add_task"); ("session", J.Str "i");
            ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 1.0 ]); ("weight", J.Num 1.0) ] ]);
            ("idem", J.Str "retry-5");
          ]
      in
      Server.Loopback.post lb add5;
      Server.Loopback.post lb add5;
      (match List.map expect_ok (Server.Loopback.drain lb) with
      | [ r1; r2 ] ->
          Alcotest.(check string) "same-drain duplicate answered with the first reply" r1 r2
      | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs));
      match Server.Engine.resident (Server.Loopback.engine lb) with
      | [ (_, s) ] ->
          Alcotest.(check int) "same-drain duplicate applied once" 5 (Server.Session.n_tasks s)
      | _ -> Alcotest.fail "one session expected")

(* --- recovery of a coalesced add_task batch ------------------------------ *)

(* Six add_tasks drained together are one placement pass and one journal
   group; recovery must replay them as one step.  On this instance the same
   adds sent one at a time place differently, so a lost batch boundary
   changes the recovered snapshot. *)
let test_batch_recovery () =
  Obs.with_recording (fun () ->
      with_temp_dir "persist" (fun dir ->
          let h =
            Hyper.Generate.generate (Randkit.Prng.create ~seed:3) ~family:Hyper.Generate.Fewg_manyg
              ~n:30 ~p:6 ~dv:3 ~dh:3 ~g:2 ~weights:Hyper.Weights.Unit
          in
          let load =
            line
              [
                ("op", J.Str "load"); ("session", J.Str "b");
                ("instance", J.Str (Hyper.Io.to_string h));
              ]
          in
          let procs l = J.List (List.map (fun q -> J.Num (float_of_int q)) l) in
          let adds =
            List.init 6 (fun i ->
                line
                  [
                    ("op", J.Str "add_task"); ("session", J.Str "b");
                    ( "configs",
                      J.List
                        [
                          J.Obj
                            [
                              ("procs", procs [ i mod 6; (i + 1) mod 6 ]);
                              ("weight", J.Num (float_of_int (1 + i)));
                            ];
                          J.Obj [ ("procs", procs [ (i + 3) mod 6 ]); ("weight", J.Num 2.5) ];
                        ] );
                  ])
          in
          let snapshot lb =
            expect_ok
              (Server.Loopback.request lb (line [ ("op", J.Str "snapshot"); ("session", J.Str "b") ]))
          in
          let persist, _ = Persist.open_ ~dir ~policy:Journal.Never ~version:"test" in
          let live = Server.Loopback.create (Server.Engine.create ~persist ()) in
          ignore (expect_ok (Server.Loopback.request live load));
          List.iter (Server.Loopback.post live) adds;
          List.iter (fun r -> ignore (expect_ok r)) (Server.Loopback.drain live);
          let want = snapshot live in
          Persist.close persist;
          let one_by_one = Server.Loopback.create (Server.Engine.create ()) in
          List.iter (fun l -> ignore (expect_ok (Server.Loopback.request one_by_one l))) (load :: adds);
          check "batching changes placement on this instance" true (snapshot one_by_one <> want);
          let engine = Server.Engine.create () in
          let info = Server.Engine.recover engine (Persist.load dir) in
          Alcotest.(check int) "load record + six batch members" 7 info.Server.Engine.rec_records;
          Alcotest.(check int) "no failures" 0 info.Server.Engine.rec_failures;
          Alcotest.(check string) "recovered snapshot = live snapshot" want
            (snapshot (Server.Loopback.create engine))))

(* A journal record that no longer applies — a mutation of a session the
   checkpoint lacks, a line that does not parse — is a recovery failure,
   reported and counted, never raised. *)
let test_failed_replay_counted () =
  with_temp_dir "persist" (fun dir ->
      let p, _ = Persist.open_ ~dir ~policy:Journal.Never ~version:"test" in
      Persist.log p ~lines:[ {|{"op":"remove_task","session":"ghost","task":0}|} ] ~cached:[];
      Persist.log p ~lines:[ "not json" ] ~cached:[];
      Persist.log p ~lines:[ {|{"op":"ping"}|} ] ~cached:[];
      Persist.close p;
      let info = Server.Engine.recover (Server.Engine.create ()) (Persist.load dir) in
      Alcotest.(check int) "every record read" 3 info.Server.Engine.rec_records;
      Alcotest.(check int) "two failed steps" 2 info.Server.Engine.rec_failures)

(* --- the kill -9 chaos harness ------------------------------------------- *)

(* Resolve the CLI binary like test_cli.ml does. *)
let cli =
  let exe_dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat exe_dir "../bin/semimatch_cli.exe";
      "../bin/semimatch_cli.exe";
      "_build/default/bin/semimatch_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let spawn_daemon ~sock ~persist ~fsync =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    [|
      cli; "serve"; "--socket"; sock; "--persist-dir"; persist; "--fsync"; fsync;
      "--checkpoint-secs"; "0";
    |]
  in
  (* Park the Runtime_events ring file in the run's temp dir: a SIGKILLed
     daemon cannot unlink its own ring, and it must not litter the cwd. *)
  let env =
    Array.append (Unix.environment ())
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ Filename.dirname sock |]
  in
  let pid = Unix.create_process_env cli argv env Unix.stdin null null in
  Unix.close null;
  pid

let connect_retry ?(timeout_s = 10.0) pid sock =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    match Server.Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, _ -> Alcotest.fail "daemon exited before accepting connections");
        if Unix.gettimeofday () -. t0 > timeout_s then
          Alcotest.fail "daemon socket never became connectable";
        Unix.sleepf 0.02;
        loop ()
  in
  loop ()

let kill_hard pid =
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid)

let graceful_shutdown conn pid =
  ignore (expect_ok (Server.Client.request ~timeout_s:10.0 conn (line [ ("op", J.Str "shutdown") ])));
  Server.Client.close conn;
  ignore (Unix.waitpid [] pid)

let chaos_session = "chaos"

(* A deterministic mutating script: load, then a seeded mix of add_task /
   remove_task / kill_proc (plus the odd forced checkpoint), all of whose
   effects replay deterministically at jobs = 1 — which is what makes the
   Loopback reference an exact oracle.  Budgeted resolve/solve are *not*
   in the mix: their outcome is time-dependent, which is exactly why the
   engine journals their resulting state instead of their request (covered
   by the resolve run below). *)
let gen_script ~seed =
  let rng = Randkit.Prng.create ~seed in
  let n = 10 and p = 6 in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n ~p ~dv:3 ~dh:3 ~g:2
      ~weights:Hyper.Weights.Unit
  in
  let live = ref (List.init n Fun.id) in
  let next = ref n in
  let out = ref [] in
  let push fields = out := line fields :: !out in
  push
    [
      ("op", J.Str "load"); ("session", J.Str chaos_session);
      ("instance", J.Str (Hyper.Io.to_string h));
      ("idem", J.Str (Printf.sprintf "c%d-load" seed));
    ];
  for i = 1 to 24 do
    let u = Randkit.Prng.float rng 1.0 in
    let idem = ("idem", J.Str (Printf.sprintf "c%d-%d" seed i)) in
    if u < 0.45 || !live = [] then begin
      let n_cfg = 1 + Randkit.Prng.int rng 2 in
      let config () =
        let k = 1 + Randkit.Prng.int rng 2 in
        let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:p in
        J.Obj
          [
            ("procs", J.List (Array.to_list (Array.map (fun q -> J.Num (float_of_int q)) procs)));
            ("weight", J.Num (0.5 +. Randkit.Prng.float rng 1.5));
          ]
      in
      push
        [
          ("op", J.Str "add_task"); ("session", J.Str chaos_session);
          ("configs", J.List (List.init n_cfg (fun _ -> config ()))); idem;
        ];
      live := !next :: !live;
      incr next
    end
    else if u < 0.75 then begin
      let a = Array.of_list !live in
      let tid = a.(Randkit.Prng.int rng (Array.length a)) in
      live := List.filter (fun t -> t <> tid) !live;
      push
        [
          ("op", J.Str "remove_task"); ("session", J.Str chaos_session);
          ("task", J.Num (float_of_int tid)); idem;
        ]
    end
    else if u < 0.9 then
      push
        [
          ("op", J.Str "kill_proc"); ("session", J.Str chaos_session);
          ("proc", J.Num (float_of_int (Randkit.Prng.int rng p))); idem;
        ]
    else
      (* Forced checkpoints mid-script: the daemon rotates its journal, so
         recovery exercises checkpoint + journal-suffix; over the Loopback
         reference (no persist dir) this is an error reply that mutates
         nothing, keeping the two paths comparable. *)
      push [ ("op", J.Str "checkpoint") ]
  done;
  List.rev !out

let snapshot_request = line [ ("op", J.Str "snapshot"); ("session", J.Str chaos_session) ]

(* The oracle: the same acked prefix driven through an in-process engine. *)
let reference_snapshot prefix =
  Obs.with_recording (fun () ->
      let lb = Server.Loopback.create (Server.Engine.create ()) in
      List.iter (fun l -> ignore (Server.Loopback.request lb l)) prefix;
      Server.Loopback.request lb snapshot_request)

type mangle = Clean | Garbage | PartialRecord

let mangle_journal persist how =
  match how with
  | Clean -> ()
  | _ ->
      let journals =
        Sys.readdir persist |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".wal")
        |> List.sort compare
      in
      let newest =
        match List.rev journals with
        | j :: _ -> Filename.concat persist j
        | [] -> Alcotest.fail "no journal to mangle"
      in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 newest in
      (match how with
      | Garbage -> output_string oc "\xde\xad\xbe\xef torn tail"
      | PartialRecord ->
          (* A plausible header promising 64 bytes, with only 5 present —
             what a crash mid-[write] leaves. *)
          let b = Bytes.create 8 in
          Bytes.set_int32_le b 0 64l;
          Bytes.set_int32_le b 4 0l;
          output_bytes oc b;
          output_string oc "hello"
      | Clean -> ());
      close_out oc

(* One chaos run: drive [kill_at] acked requests into a real daemon, kill
   it with SIGKILL, optionally mangle the journal tail, restart on the
   same persist dir, and compare the recovered snapshot byte-for-byte with
   the Loopback oracle.  Also checks the recovered daemon still *serves*
   (the snapshot request itself) and shuts down cleanly. *)
let chaos_once ~seed ~fsync ~kill_at ~mangle =
  with_temp_dir "chaos" (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let persist = Filename.concat dir "persist" in
      let script = gen_script ~seed in
      let kill_at = 1 + (kill_at mod List.length script) in
      let prefix = List.filteri (fun i _ -> i < kill_at) script in
      let pid = spawn_daemon ~sock ~persist ~fsync in
      let conn = connect_retry pid sock in
      List.iter
        (fun l -> ignore (expect_ok (Server.Client.request ~timeout_s:30.0 conn l)))
        prefix;
      Server.Client.close conn;
      kill_hard pid;
      mangle_journal persist mangle;
      let pid2 = spawn_daemon ~sock ~persist ~fsync in
      let conn2 = connect_retry pid2 sock in
      let got = Server.Client.request ~timeout_s:30.0 conn2 snapshot_request in
      let want = reference_snapshot prefix in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, fsync %s, kill at %d: recovered snapshot" seed fsync kill_at)
        want got;
      graceful_shutdown conn2 pid2)

let test_chaos_kill9 () =
  (* >= 20 kill points spread across the script and both fsync policies. *)
  for i = 0 to 9 do
    chaos_once ~seed:(1000 + i) ~fsync:"always" ~kill_at:(1 + (i * 7)) ~mangle:Clean;
    chaos_once ~seed:(2000 + i) ~fsync:"interval:50" ~kill_at:(3 + (i * 5)) ~mangle:Clean
  done

let test_chaos_torn_tail () =
  (* A mangled journal tail — garbage bytes, then a truncated record —
     must be truncated by recovery, never crash it, and never change the
     acked prefix. *)
  chaos_once ~seed:3001 ~fsync:"interval:50" ~kill_at:9 ~mangle:Garbage;
  chaos_once ~seed:3002 ~fsync:"always" ~kill_at:14 ~mangle:PartialRecord

(* Budgeted resolve is journaled as its *resulting state* (replay of the
   search would be time-dependent): after kill -9, the recovered makespan
   must equal what the daemon acked, even though no oracle can re-run the
   search. *)
let test_chaos_resolve_state_record () =
  with_temp_dir "chaos" (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let persist = Filename.concat dir "persist" in
      let pid = spawn_daemon ~sock ~persist ~fsync:"always" in
      let conn = connect_retry pid sock in
      let script = gen_script ~seed:4001 in
      List.iter
        (fun l -> ignore (expect_ok (Server.Client.request ~timeout_s:30.0 conn l)))
        script;
      ignore
        (expect_ok
           (Server.Client.request ~timeout_s:60.0 conn
              (line
                 [
                   ("op", J.Str "resolve"); ("session", J.Str chaos_session);
                   ("budget_ms", J.Num 50.0);
                 ])));
      let before = Server.Client.request ~timeout_s:30.0 conn snapshot_request in
      Server.Client.close conn;
      kill_hard pid;
      let pid2 = spawn_daemon ~sock ~persist ~fsync:"always" in
      let conn2 = connect_retry pid2 sock in
      let after = Server.Client.request ~timeout_s:30.0 conn2 snapshot_request in
      Alcotest.(check string) "resolve outcome survives the crash" before after;
      graceful_shutdown conn2 pid2)

let test_sigterm_graceful () =
  with_temp_dir "sigterm" (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let persist = Filename.concat dir "persist" in
      let pid = spawn_daemon ~sock ~persist ~fsync:"never" in
      let conn = connect_retry pid sock in
      let prefix = List.filteri (fun i _ -> i < 6) (gen_script ~seed:5001) in
      List.iter
        (fun l -> ignore (expect_ok (Server.Client.request ~timeout_s:30.0 conn l)))
        prefix;
      let before = Server.Client.request ~timeout_s:30.0 conn snapshot_request in
      Server.Client.close conn;
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, st ->
          Alcotest.failf "SIGTERM exit: %s"
            (match st with
            | Unix.WEXITED c -> Printf.sprintf "exited %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      check "socket file unlinked on graceful shutdown" false (Sys.file_exists sock);
      check "final checkpoint written" true
        (Array.exists
           (fun n -> String.length n >= 5 && String.sub n 0 5 = "ckpt-")
           (Sys.readdir persist));
      (* The final checkpoint alone (fsync=never, journal rotated away)
         recovers the full state. *)
      let pid2 = spawn_daemon ~sock ~persist ~fsync:"never" in
      let conn2 = connect_retry pid2 sock in
      let after = Server.Client.request ~timeout_s:30.0 conn2 snapshot_request in
      Alcotest.(check string) "state survives SIGTERM via the final checkpoint" before after;
      graceful_shutdown conn2 pid2)

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
    Alcotest.test_case "journal roundtrip and torn tail" `Quick
      test_journal_roundtrip_and_torn_tail;
    Alcotest.test_case "journal scan stops at corruption" `Quick
      test_journal_corrupt_middle_stops_scan;
    Alcotest.test_case "checkpoint atomicity" `Quick test_checkpoint_atomicity;
    Alcotest.test_case "idempotency dedup over loopback" `Quick test_idempotency_dedup;
    Alcotest.test_case "kill -9 chaos: 20 kill points, both fsync policies" `Slow
      test_chaos_kill9;
    Alcotest.test_case "kill -9 chaos: torn journal tails" `Slow test_chaos_torn_tail;
    Alcotest.test_case "kill -9 chaos: resolve state record" `Slow
      test_chaos_resolve_state_record;
    Alcotest.test_case "SIGTERM writes a final checkpoint" `Quick test_sigterm_graceful;
    Alcotest.test_case "recovery replays a coalesced add_task batch" `Quick test_batch_recovery;
    Alcotest.test_case "recovery counts a failed replayed step" `Quick test_failed_replay_counted;
    Alcotest.test_case "journal segment golden digest" `Quick test_journal_golden;
    Alcotest.test_case "journal phase histograms" `Quick test_journal_histograms;
  ]
