(* Scheduler service tests, all over the in-process loopback transport: the
   full protocol path (parse → admission → batch → session → reply) without
   sockets, so every check is deterministic at jobs = 1. *)

module J = Obs.Json
module P = Server.Protocol
module L = Server.Loopback
module H = Hyper.Graph

let check = Alcotest.(check bool)
let line fields = J.to_string (J.Obj fields)

let field reply name =
  match J.member name (J.of_string reply) with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name reply

let num reply name =
  match field reply name with
  | J.Num f -> f
  | _ -> Alcotest.failf "field %S not numeric: %s" name reply

let is_ok reply = match field reply "ok" with J.Bool b -> b | _ -> false

let error_code reply =
  match J.member "error" (J.of_string reply) with Some (J.Str s) -> s | _ -> ""

let expect_ok reply =
  if not (is_ok reply) then Alcotest.failf "expected ok reply, got %s" reply;
  reply

let expect_error code reply =
  if is_ok reply then Alcotest.failf "expected %s error, got %s" code reply;
  Alcotest.(check string) ("error code " ^ code) code (error_code reply);
  reply

(* A tiny fixed instance with some slack for the heuristics to disagree on. *)
let tiny () =
  H.create ~n1:3 ~n2:3
    ~hyperedges:
      [
        (0, [| 0 |], 2.0);
        (0, [| 1 |], 2.0);
        (1, [| 1 |], 1.0);
        (1, [| 2 |], 1.0);
        (2, [| 0; 1 |], 1.0);
        (2, [| 2 |], 3.0);
      ]

let load_line ?id ~session h =
  let base =
    [ ("op", J.Str "load"); ("session", J.Str session); ("instance", J.Str (Hyper.Io.to_string h)) ]
  in
  line (match id with None -> base | Some i -> ("id", J.Num (float_of_int i)) :: base)

(* --- golden transcript -------------------------------------------------- *)

(* Byte-for-byte, modulo the timing fields: elapsed_ms and uptime_s are wall
   clock and the stats counters include timing-sensitive solver work, so all
   three are blanked before comparison.  Everything else — field order,
   number formatting, id echoing — is part of the protocol contract scripted
   clients rely on. *)
let normalize reply =
  let rec strip = function
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match k with
               | "elapsed_ms" | "uptime_s" -> (k, J.Num 0.0)
               | "counters" -> (k, J.Obj [])
               | _ -> (k, strip v))
             fields)
    | v -> v
  in
  J.to_string (strip (J.of_string reply))

let golden_script () =
  [
    line [ ("op", J.Str "ping") ];
    load_line ~id:1 ~session:"g" (tiny ());
    line
      [
        ("id", J.Num 2.0); ("op", J.Str "add_task"); ("session", J.Str "g");
        ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 2.0 ]); ("weight", J.Num 2.0) ] ]);
      ];
    line [ ("id", J.Num 3.0); ("op", J.Str "remove_task"); ("session", J.Str "g"); ("task", J.Num 1.0) ];
    line [ ("id", J.Num 4.0); ("op", J.Str "resolve"); ("session", J.Str "g"); ("budget_ms", J.Num 1e7) ];
    line [ ("id", J.Num 5.0); ("op", J.Str "stats") ];
    line [ ("op", J.Str "sessions") ];
    line [ ("id", J.Str "bye"); ("op", J.Str "shutdown") ];
  ]

let golden_expected =
  [
    {|{"ok":true,"op":"ping","pong":true}|};
    {|{"id":1,"ok":true,"op":"load","session":"g","tasks":3,"procs":3,"makespan":3,"lower_bound":2,"moved":3,"infeasible":0}|};
    {|{"id":2,"ok":true,"op":"add_task","tid":3,"batched":1,"makespan":3,"moved":1,"infeasible":0}|};
    {|{"id":3,"ok":true,"op":"remove_task","task":1,"makespan":3}|};
    {|{"id":4,"ok":true,"op":"resolve","tier":"exact","degraded":false,"replaced":false,"makespan":3,"lower_bound":2,"elapsed_ms":0}|};
    {|{"id":5,"ok":true,"op":"stats","uptime_s":0,"version":"dev","requests":6,"served":5,"sessions":1,"pending":0,"counters":{}}|};
    {|{"ok":true,"op":"sessions","sessions":["g"]}|};
    {|{"id":"bye","ok":true,"op":"shutdown","shutting_down":true}|};
  ]

let test_golden_transcript () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ()) in
      let replies = List.map (fun l -> normalize (L.request lb l)) (golden_script ()) in
      List.iteri
        (fun i (expected, got) ->
          Alcotest.(check string) (Printf.sprintf "reply %d" i) expected got)
        (List.combine golden_expected replies);
      check "shutdown latched" true (L.shutting_down lb))

(* --- online sequence vs from-scratch portfolio -------------------------- *)

(* Snapshot state → (graph, chosen config per task, dead procs). *)
let decode_state state =
  let str name = match J.member name state with Some (J.Str s) -> s | _ -> Alcotest.fail name in
  let ints name =
    match J.member name state with
    | Some (J.List l) -> List.map (function J.Num f -> int_of_float f | _ -> Alcotest.fail name) l
    | _ -> Alcotest.fail name
  in
  (Hyper.Io.of_string (str "instance"), Array.of_list (ints "chosen"), ints "dead")

(* Recompute the served makespan from first principles: per-processor loads
   of the chosen configurations on the snapshot's own instance text. *)
let served_makespan h chosen dead =
  let loads = Array.make h.H.n2 0.0 in
  Array.iteri
    (fun v c ->
      check "every task placed" true (c >= 0 && c < H.task_degree h v);
      let e = h.H.task_off.(v) + c in
      H.iter_h_procs h e (fun p ->
          check "no pin on a dead processor" false (List.mem p dead);
          loads.(p) <- loads.(p) +. H.h_weight h e))
    chosen;
  Array.fold_left Float.max 0.0 loads

let random_config st ~n2 =
  let k = 1 + Random.State.int st (min 2 (n2 - 1)) in
  let start = Random.State.int st n2 in
  J.Obj
    [
      ("procs", J.List (List.init k (fun i -> J.Num (float_of_int ((start + i) mod n2)))));
      (* One-decimal weights survive the snapshot's %g text format exactly. *)
      ("weight", J.Num (float_of_int (5 + Random.State.int st 20) /. 10.0));
    ]

let test_random_sequence_vs_portfolio () =
  Obs.with_recording (fun () ->
      let st = Random.State.make [| 42 |] in
      let n2 = 5 in
      let base =
        H.create ~n1:8 ~n2
          ~hyperedges:
            (List.concat
               (List.init 8 (fun v ->
                    List.init 2 (fun _ ->
                        match random_config st ~n2 with
                        | J.Obj [ ("procs", J.List ps); ("weight", J.Num w) ] ->
                            ( v,
                              Array.of_list (List.map (function J.Num f -> int_of_float f | _ -> 0) ps),
                              w )
                        | _ -> assert false))))
      in
      let lb = L.create (Server.Engine.create ()) in
      ignore (expect_ok (L.request lb (load_line ~session:"r" base)));
      let live = ref (List.init 8 Fun.id) in
      for _ = 1 to 40 do
        if Random.State.bool st || List.length !live <= 2 then begin
          let reply =
            expect_ok
              (L.request lb
                 (line
                    [
                      ("op", J.Str "add_task"); ("session", J.Str "r");
                      ("configs", J.List [ random_config st ~n2; random_config st ~n2 ]);
                    ]))
          in
          live := int_of_float (num reply "tid") :: !live
        end
        else begin
          let victim = List.nth !live (Random.State.int st (List.length !live)) in
          ignore
            (expect_ok
               (L.request lb
                  (line
                     [
                       ("op", J.Str "remove_task"); ("session", J.Str "r");
                       ("task", J.Num (float_of_int victim));
                     ])));
          live := List.filter (( <> ) victim) !live
        end
      done;
      let resolve =
        expect_ok
          (L.request lb
             (line [ ("op", J.Str "resolve"); ("session", J.Str "r"); ("budget_ms", J.Num 1e7) ]))
      in
      let snap = expect_ok (L.request lb (line [ ("op", J.Str "snapshot"); ("session", J.Str "r") ])) in
      let h, chosen, dead = decode_state (field snap "state") in
      (* Feasibility: every surviving task is placed on live processors, and
         the reported makespan is exactly the loads those choices imply. *)
      let served = served_makespan h chosen dead in
      Alcotest.(check (float 1e-9)) "reported makespan is the real one" served (num resolve "makespan");
      (* Quality: after one generous resolve, the served schedule is no worse
         than the from-scratch portfolio on the final instance. *)
      let fresh = (Semimatch.Portfolio.solve ~jobs:1 h).Semimatch.Portfolio.best_makespan in
      check "served <= from-scratch portfolio" true (served <= fresh +. 1e-9))

(* [Session.resolve] adopts a candidate only when it is strictly better, so
   re-solving an unchanged session must not adopt again.  Non-integer
   weights are where a reported makespan that is not the schedule's own
   would show. *)
let second_resolve_not_adopted_prop =
  QCheck.Test.make ~name:"a second identical resolve is not adopted" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 5 + Randkit.Prng.int rng 25 and n2 = 1 + Randkit.Prng.int rng 10 in
      let hyperedges =
        List.concat
          (List.init n1 (fun v ->
               List.init
                 (1 + Randkit.Prng.int rng 4)
                 (fun _ ->
                   let k = 1 + Randkit.Prng.int rng (min 4 n2) in
                   ( v,
                     Randkit.Prng.sample_without_replacement rng ~k ~n:n2,
                     0.1 +. Randkit.Prng.float rng 3.0 ))))
      in
      let s, _ = Server.Session.of_graph ~id:"r" (H.create ~n1 ~n2 ~hyperedges) in
      ignore (Server.Session.resolve ~jobs:1 ~budget_s:60.0 s);
      let before = Server.Session.makespan s in
      let d, replaced = Server.Session.resolve ~jobs:1 ~budget_s:60.0 s in
      (not replaced)
      || QCheck.Test.fail_reportf "adopted %h over %h" d.Semimatch.Deadline.d_makespan before)

(* --- snapshot / restore round trip -------------------------------------- *)

let preamble lb session =
  ignore (expect_ok (L.request lb (load_line ~session (tiny ()))));
  ignore
    (expect_ok
       (L.request lb
          (line
             [
               ("op", J.Str "add_task"); ("session", J.Str session);
               ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 0.0; J.Num 2.0 ]); ("weight", J.Num 1.5) ] ]);
             ])));
  ignore
    (expect_ok
       (L.request lb
          (line [ ("op", J.Str "remove_task"); ("session", J.Str session); ("task", J.Num 0.0) ])))

let solve_line session = line [ ("op", J.Str "solve"); ("session", J.Str session) ]
let snapshot_line session = line [ ("op", J.Str "snapshot"); ("session", J.Str session) ]

let test_snapshot_restore_identity () =
  Obs.with_recording (fun () ->
      (* Path A: snapshot, restore over the live session, then solve. *)
      let a = L.create (Server.Engine.create ()) in
      preamble a "s";
      let state = field (expect_ok (L.request a (snapshot_line "s"))) "state" in
      ignore
        (expect_ok
           (L.request a
              (line [ ("op", J.Str "restore"); ("session", J.Str "s"); ("state", state) ])));
      let solve_a = expect_ok (L.request a (solve_line "s")) in
      let snap_a = field (expect_ok (L.request a (snapshot_line "s"))) "state" in
      (* Path B: the same history without ever snapshotting. *)
      let b = L.create (Server.Engine.create ()) in
      preamble b "s";
      let solve_b = expect_ok (L.request b (solve_line "s")) in
      let snap_b = field (expect_ok (L.request b (snapshot_line "s"))) "state" in
      Alcotest.(check string) "final state byte-identical" (J.to_string snap_b) (J.to_string snap_a);
      Alcotest.(check string) "solve replies identical modulo timing" (normalize solve_b)
        (normalize solve_a))

(* --- parser fuzz: total over hostile bytes ------------------------------ *)

let hostile_string =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

let fuzz_parse_total =
  QCheck.Test.make ~count:1000 ~name:"Protocol.parse never raises" hostile_string (fun s ->
      match P.parse s with Ok _ | Error _ -> true)

let fuzz_parse_truncations =
  (* Every prefix of a valid request parses to *something* without raising,
     and the loopback still answers each with exactly one reply. *)
  QCheck.Test.make ~count:50 ~name:"truncated requests still get replies"
    QCheck.(int_range 0 200)
    (fun seed ->
      let full =
        line
          [
            ("id", J.Num (float_of_int seed)); ("op", J.Str "add_task"); ("session", J.Str "nope");
            ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 0.0 ]); ("weight", J.Num 1.0) ] ]);
          ]
      in
      Obs.with_recording (fun () ->
          let lb = L.create (Server.Engine.create ()) in
          List.for_all
            (fun len ->
              let prefix = String.sub full 0 len in
              (match P.parse prefix with Ok _ | Error _ -> ());
              String.length (L.request lb prefix) > 0)
            (List.init (String.length full) Fun.id)))

let test_frame_cap () =
  Obs.with_recording (fun () ->
      let big = String.make 300 'x' in
      (match P.parse ~max_frame:64 big with
      | Error (P.Too_large, _, _) -> ()
      | _ -> Alcotest.fail "oversized frame must be rejected as too_large");
      (* The cap is checked before any parsing: even well-formed JSON over
         the limit is refused, so a hostile length never reaches the
         allocator. *)
      let lb = L.create (Server.Engine.create ~max_frame:64 ()) in
      ignore (expect_error "too_large" (L.request lb (load_line ~session:"s" (tiny ()))));
      ignore (expect_ok (L.request lb (line [ ("op", J.Str "ping") ]))))

(* --- admission control, batching, ordering ------------------------------ *)

let test_busy_backpressure () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ~max_pending:2 ()) in
      for i = 1 to 5 do
        L.post lb (line [ ("id", J.Num (float_of_int i)); ("op", J.Str "ping") ])
      done;
      let replies = L.drain lb in
      Alcotest.(check int) "every post answered" 5 (List.length replies);
      let busy, served = List.partition (fun r -> error_code r = "busy") replies in
      Alcotest.(check int) "overflow rejected" 3 (List.length busy);
      Alcotest.(check int) "admitted served" 2 (List.length served);
      (* The busy reply still carries the request id for matching. *)
      check "busy replies keep ids" true
        (List.for_all (fun r -> match field r "id" with J.Num _ -> true | _ -> false) busy);
      (* The queue drained, so the next round is admitted again. *)
      ignore (expect_ok (L.request lb (line [ ("op", J.Str "ping") ]))))

let test_batch_coalescing () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ()) in
      ignore (expect_ok (L.request lb (load_line ~session:"b" (tiny ()))));
      for i = 0 to 2 do
        L.post lb
          (line
             [
               ("id", J.Num (float_of_int i)); ("op", J.Str "add_task"); ("session", J.Str "b");
               ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num (float_of_int i) ]); ("weight", J.Num 1.0) ] ]);
             ])
      done;
      let replies = List.map expect_ok (L.drain lb) in
      Alcotest.(check int) "one reply per request" 3 (List.length replies);
      List.iteri
        (fun i r ->
          Alcotest.(check int) "rode in a batch of 3" 3 (int_of_float (num r "batched"));
          Alcotest.(check int) "ids echoed in order" i (int_of_float (num r "id")))
        replies;
      let tids = List.map (fun r -> int_of_float (num r "tid")) replies in
      Alcotest.(check (list int)) "fresh tids in request order" [ 3; 4; 5 ] tids)

let test_reply_order_with_malformed () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ()) in
      L.post lb (line [ ("id", J.Num 1.0); ("op", J.Str "ping") ]);
      L.post lb "{not json";
      L.post lb (line [ ("id", J.Num 3.0); ("op", J.Str "ping") ]);
      match L.drain lb with
      | [ r1; r2; r3 ] ->
          check "first served" true (is_ok r1);
          Alcotest.(check string) "malformed rejected in place" "protocol" (error_code r2);
          check "third served" true (is_ok r3)
      | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs))

(* --- failures and error codes ------------------------------------------- *)

let test_kill_proc_and_infeasible () =
  Obs.with_recording (fun () ->
      (* Task 0 lives only on processor 0; task 1 can move to processor 1. *)
      let h =
        H.create ~n1:2 ~n2:2
          ~hyperedges:[ (0, [| 0 |], 1.0); (1, [| 0 |], 2.0); (1, [| 1 |], 2.0) ]
      in
      let lb = L.create (Server.Engine.create ()) in
      ignore (expect_ok (L.request lb (load_line ~session:"k" h)));
      let kill = line [ ("op", J.Str "kill_proc"); ("session", J.Str "k"); ("proc", J.Num 0.0) ] in
      let r = expect_ok (L.request lb kill) in
      Alcotest.(check int) "task 0 stranded" 1 (int_of_float (num r "infeasible"));
      let r2 = expect_ok (L.request lb kill) in
      (* Idempotent in effect: the stranded task is retried (affected) but
         stays stranded and nothing placed moves. *)
      Alcotest.(check int) "still exactly one stranded task" 1
        (int_of_float (num r2 "infeasible"));
      Alcotest.(check (float 1e-9)) "makespan unchanged" (num r "makespan") (num r2 "makespan");
      (* resolve and solve keep reporting the stranded task, never crash. *)
      let s =
        expect_ok (L.request lb (line [ ("op", J.Str "solve"); ("session", J.Str "k") ]))
      in
      Alcotest.(check int) "solve reports the stranded task" 1 (int_of_float (num s "infeasible"));
      Alcotest.(check (float 1e-9)) "survivor load" 2.0 (num s "makespan"))

let test_snapshot_restore_after_kill_proc () =
  Obs.with_recording (fun () ->
      (* kill_proc can leave a task with no surviving configuration, i.e. a
         [chosen = -1] slot in the snapshot's chosen vector.  That state
         must survive a snapshot/restore round trip byte-identically, and
         the restored session must still verify and serve mutations. *)
      let h =
        H.create ~n1:2 ~n2:2
          ~hyperedges:[ (0, [| 0 |], 1.0); (1, [| 0 |], 2.0); (1, [| 1 |], 2.0) ]
      in
      let a = L.create (Server.Engine.create ()) in
      ignore (expect_ok (L.request a (load_line ~session:"k" h)));
      let kill = line [ ("op", J.Str "kill_proc"); ("session", J.Str "k"); ("proc", J.Num 0.0) ] in
      ignore (expect_ok (L.request a kill));
      let state = field (expect_ok (L.request a (snapshot_line "k"))) "state" in
      (* Restore into a *fresh* engine, as crash recovery does. *)
      let b = L.create (Server.Engine.create ()) in
      ignore
        (expect_ok
           (L.request b
              (line [ ("op", J.Str "restore"); ("session", J.Str "k"); ("state", state) ])));
      let state2 = field (expect_ok (L.request b (snapshot_line "k"))) "state" in
      Alcotest.(check string) "infeasible slot survives the round trip"
        (J.to_string state) (J.to_string state2);
      (match Server.Engine.resident (L.engine b) with
      | [ (_, s) ] ->
          (match Server.Session.verify s with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "restored session fails verify: %s" msg);
          Alcotest.(check (list int)) "task 0 still unplaced" [ 0 ]
            (Server.Session.unplaced s)
      | _ -> Alcotest.fail "one session expected");
      (* The restored session keeps serving: a task placeable on the
         survivor lands there, the stranded one stays stranded. *)
      let add =
        line
          [
            ("op", J.Str "add_task"); ("session", J.Str "k");
            ("configs", J.List [ J.Obj [ ("procs", J.List [ J.Num 1.0 ]); ("weight", J.Num 0.5) ] ]);
          ]
      in
      ignore (expect_ok (L.request b add));
      match Server.Engine.resident (L.engine b) with
      | [ (_, s) ] ->
          Alcotest.(check int) "task added after restore" 3 (Server.Session.n_tasks s);
          Alcotest.(check (list int)) "stranded task unchanged" [ 0 ] (Server.Session.unplaced s)
      | _ -> Alcotest.fail "one session expected")

let test_error_codes () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ()) in
      ignore (expect_error "protocol" (L.request lb "[1,2]"));
      ignore (expect_error "protocol" (L.request lb (line [ ("op", J.Str "frobnicate") ])));
      ignore (expect_error "protocol" (L.request lb (line [ ("ops", J.Str "ping") ])));
      ignore
        (expect_error "unknown_session"
           (L.request lb (line [ ("op", J.Str "solve"); ("session", J.Str "ghost") ])));
      ignore
        (expect_error "bad_request"
           (L.request lb
              (line
                 [
                   ("op", J.Str "load"); ("session", J.Str "x");
                   ("path", J.Str "/nonexistent/instance.hg");
                 ])));
      List.iter
        (fun state ->
          ignore
            (expect_error "bad_request"
               (L.request lb
                  (line [ ("op", J.Str "restore"); ("session", J.Str "x"); ("state", state) ]))))
        [
          J.Str "garbage";
          (* Task 0's chosen configuration sits on dead processor 0. *)
          J.of_string
            {|{"format":"semimatch.session/1","instance":"hypergraph 2 2\nh 0 5 0\nh 0 1 1\nh 1 1 1\n","tids":[0,1],"chosen":[0,0],"dead":[0],"next_tid":2}|};
        ];
      ignore (expect_ok (L.request lb (load_line ~session:"x" (tiny ()))));
      (* Validation failures mutate nothing: the failed add leaves the task
         count unchanged. *)
      ignore
        (expect_error "bad_request"
           (L.request lb
              (line
                 [
                   ("op", J.Str "add_task"); ("session", J.Str "x");
                   ("configs", J.List [ J.Obj [ ("procs", J.List []); ("weight", J.Num 1.0) ] ]);
                 ])));
      ignore
        (expect_error "bad_request"
           (L.request lb
              (line [ ("op", J.Str "remove_task"); ("session", J.Str "x"); ("task", J.Num 99.0) ])));
      let r = expect_ok (L.request lb (line [ ("op", J.Str "ping") ])) in
      check "server survives the gauntlet" true (is_ok r))

(* --- introspection: stats basics, metrics exposition --------------------- *)

let test_stats_basics_without_obs () =
  (* The two-tier contract from protocol.mli: uptime/version/request totals
     are engine state and answer even with the Obs switch off; only the
     counters object goes dark. *)
  check "obs off for this test" false (Obs.is_enabled ());
  let lb = L.create (Server.Engine.create ()) in
  ignore (expect_ok (L.request lb (line [ ("op", J.Str "ping") ])));
  let r = expect_ok (L.request lb (line [ ("op", J.Str "stats") ])) in
  check "uptime_s present and sane" true (num r "uptime_s" >= 0.0);
  (match field r "version" with
  | J.Str "dev" -> ()
  | v -> Alcotest.failf "version: %s" (J.to_string v));
  Alcotest.(check int) "requests counts both" 2 (int_of_float (num r "requests"));
  Alcotest.(check int) "served counts the ping" 1 (int_of_float (num r "served"));
  match field r "counters" with
  | J.Obj [] -> ()
  | v -> Alcotest.failf "counters should be empty with Obs off: %s" (J.to_string v)

let test_metrics_exposition () =
  Obs.with_recording (fun () ->
      let lb = L.create (Server.Engine.create ()) in
      ignore (expect_ok (L.request lb (load_line ~session:"m" (tiny ()))));
      ignore (expect_ok (L.request lb (line [ ("op", J.Str "ping") ])));
      let r = expect_ok (L.request lb (line [ ("op", J.Str "metrics") ])) in
      let text =
        match field r "exposition" with
        | J.Str s -> s
        | _ -> Alcotest.fail "exposition must be a string"
      in
      (match Obs.Prom.lint text with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "exposition fails its own lint: %s" msg);
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      check "session gauge" true (has {|semimatch_server_sessions 1|});
      check "labeled per-session gauge" true (has {|{session="m"}|});
      check "per-op latency histogram" true (has "semimatch_server_latency_ping_us_bucket");
      check "cumulative +Inf bucket" true (has {|le="+Inf"|}))

(* The clients' one reply decoder reads back what the daemon writes: every
   error code (busy drives the upload retry and loadgen's busy count), the
   ok flag with the other fields, a reply without a message and a line that
   is not JSON. *)
let test_decode_reply () =
  let decode line =
    match P.decode_reply line with Ok r -> r | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  let r = decode (P.ok_reply ~id:(J.Num 7.) ~op:"metrics" [ ("exposition", J.Str "x") ]) in
  check "ok reply" true (r.P.ok && r.P.code = None);
  check "ok reply keeps its fields" true (J.member "exposition" r.P.json = Some (J.Str "x"));
  List.iter
    (fun code ->
      let r = decode (P.error_reply ~id:(J.Num 7.) ~code "why") in
      check (P.code_name code) true
        ((not r.P.ok) && r.P.code = Some (P.code_name code) && r.P.message = "why"))
    [ P.Protocol; P.Bad_request; P.Unknown_session; P.Busy; P.Too_large; P.Internal ];
  check "no message: the line itself" true ((decode {|{"ok":false}|}).P.message = {|{"ok":false}|});
  check "not JSON" true (Result.is_error (P.decode_reply "not json"))

(* --- client timeout and mid-request hangup ------------------------------- *)

let test_client_timeout () =
  (* A connected peer that never replies: the read must give up after the
     deadline, not hang the caller. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Server.Client.of_fd a in
  let t0 = Unix.gettimeofday () in
  (match Server.Client.request ~timeout_s:0.3 c {|{"op":"ping"}|} with
  | reply -> Alcotest.failf "expected Timeout, got reply %s" reply
  | exception Server.Client.Timeout -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  check "timed out promptly" true (elapsed >= 0.25 && elapsed < 3.0);
  Server.Client.close c;
  Unix.close b

let test_client_server_death_mid_request () =
  (* The daemon dies after accepting the request but before replying: the
     client sees End_of_file, not a hang and not a Timeout — also with a
     timeout past the clock's range (1e10 s), which means no deadline. *)
  List.iter
    (fun timeout_s ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let c = Server.Client.of_fd a in
      let killer =
        Domain.spawn (fun () ->
            (* Wait for the request bytes so the close is genuinely mid-request. *)
            let buf = Bytes.create 256 in
            ignore (Unix.read b buf 0 256);
            Unix.close b)
      in
      (match Server.Client.request ~timeout_s c {|{"op":"ping"}|} with
      | reply -> Alcotest.failf "expected End_of_file, got reply %s" reply
      | exception End_of_file -> ());
      Domain.join killer;
      Server.Client.close c)
    [ 5.0; 1e10 ]

let test_client_failed_connect_closes_fd () =
  (* Retry loops dial a starting daemon every few milliseconds: a failed
     connect must not leave its socket open. *)
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "semimatch-absent-%d.sock" (Unix.getpid ()))
  in
  let closed_port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
    Unix.close s;
    port
  in
  let refused dial =
    match dial () with
    | c ->
        Server.Client.close c;
        Alcotest.fail "connected to an endpoint nobody listens on"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ()
  in
  let before = open_fds () in
  for _ = 1 to 100 do
    refused (fun () -> Server.Client.connect_unix missing);
    refused (fun () -> Server.Client.connect_tcp ~host:"127.0.0.1" ~port:closed_port)
  done;
  Alcotest.(check int) "open fds after 200 failed connects" before (open_fds ())

let suite =
  [
    Alcotest.test_case "golden transcript" `Quick test_golden_transcript;
    Alcotest.test_case "random online sequence vs portfolio" `Quick
      test_random_sequence_vs_portfolio;
    QCheck_alcotest.to_alcotest second_resolve_not_adopted_prop;
    Alcotest.test_case "snapshot/restore/solve identity" `Quick test_snapshot_restore_identity;
    QCheck_alcotest.to_alcotest fuzz_parse_total;
    QCheck_alcotest.to_alcotest fuzz_parse_truncations;
    Alcotest.test_case "frame size cap" `Quick test_frame_cap;
    Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
    Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
    Alcotest.test_case "reply order with malformed lines" `Quick test_reply_order_with_malformed;
    Alcotest.test_case "kill_proc and infeasible tasks" `Quick test_kill_proc_and_infeasible;
    Alcotest.test_case "snapshot/restore after kill_proc strands a task" `Quick
      test_snapshot_restore_after_kill_proc;
    Alcotest.test_case "error codes" `Quick test_error_codes;
    Alcotest.test_case "stats basics answer with Obs disabled" `Quick
      test_stats_basics_without_obs;
    Alcotest.test_case "metrics exposition over loopback" `Quick test_metrics_exposition;
    Alcotest.test_case "reply decoder reads every reply shape" `Quick test_decode_reply;
    Alcotest.test_case "client read timeout" `Quick test_client_timeout;
    Alcotest.test_case "client sees EOF when the server dies mid-request" `Quick
      test_client_server_death_mid_request;
    Alcotest.test_case "failed client connects close their socket" `Quick
      test_client_failed_connect_closes_fd;
  ]
