module P = Protocol
module J = Obs.Json

let c_requests = Obs.Metrics.counter "server.requests"
let c_errors = Obs.Metrics.counter "server.errors"
let c_busy = Obs.Metrics.counter "server.busy"
let c_batched = Obs.Metrics.counter "server.batched"
let c_adopted = Obs.Metrics.counter "server.resolve.adopted"
let c_idem_hits = Obs.Metrics.counter "server.idem.hits"
let c_recovery_records = Obs.Metrics.counter "server.recovery.records"

let () =
  Obs.Prom.describe "server.requests" "Requests handled (batch members counted individually).";
  Obs.Prom.describe "server.errors" "Error replies sent.";
  Obs.Prom.describe "server.busy" "Requests rejected by admission control.";
  Obs.Prom.describe "server.batched" "add_task requests served through a coalesced batch.";
  Obs.Prom.describe "server.resolve.adopted" "Budgeted resolves whose schedule beat the incumbent.";
  Obs.Prom.describe "server.sessions" "Resident sessions.";
  Obs.Prom.describe "server.pending" "Requests waiting in the admission queue.";
  Obs.Prom.describe "server.uptime_seconds" "Seconds since the engine was created.";
  Obs.Prom.describe "server.idem.hits" "Mutations answered from the idempotency cache.";
  Obs.Prom.describe "server.checkpoints" "Checkpoints written since startup.";
  Obs.Prom.describe "server.recovery.records" "Journal records replayed at startup.";
  Obs.Prom.describe "server.recovery.torn_bytes" "Torn journal bytes truncated at startup.";
  Obs.Prom.describe "server.recovery.sessions" "Sessions restored by crash recovery.";
  Obs.Prom.describe "server.recovery.replay_us" "Crash-recovery replay time, microseconds.";
  Obs.Prom.describe "server.spools" "Edge-stream uploads currently spooling to disk.";
  Obs.Prom.describe "stream.peak_state_words"
    "High-water working-state words across all bounded-memory streaming solves."

(* Per-request phase latencies in microseconds: admission-time parse,
   queue residency, handler execution ("solve"), reply write.  Per-op
   end-to-end latency histograms are interned on first use of each op. *)
let h_parse = Obs.Metrics.histogram "server.phase.parse_us"
let h_queue = Obs.Metrics.histogram "server.phase.queue_wait_us"
let h_solve = Obs.Metrics.histogram "server.phase.solve_us"
let h_reply = Obs.Metrics.histogram "server.phase.reply_us"

let latency_hists : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 16

let latency_hist op =
  match Hashtbl.find_opt latency_hists op with
  | Some h -> h
  | None ->
      let h = Obs.Metrics.histogram ("server.latency." ^ op ^ "_us") in
      Hashtbl.add latency_hists op h;
      h

type item = {
  parsed : (P.parsed, P.error_code * string * J.t option) result;
  raw : string;  (* the request line as received — the "offending request" a bundle captures *)
  reply : string -> unit;
  posted_ns : int64;  (* admission timestamp, for the queue-wait phase *)
}

(* One in-flight chunked edge-stream upload: edges are appended to a spool
   file on disk ({!Hyper.Stream_io}), never buffered in RAM.  Spools are
   transient by design — they are not journaled and do not survive a daemon
   restart; a client that loses its connection mid-upload re-begins. *)
type spool = { sp_writer : Hyper.Stream_io.writer; sp_path : string }

type recovery_info = {
  rec_records : int;
  rec_torn_bytes : int;
  rec_sessions : int;
  rec_checkpoint : string option;
  rec_replay_us : float;
  rec_failures : int;  (* restores, replayed steps or feasibility recomputes that failed *)
}

(* The slow-request log's sampling stride (the 1st slow request, then every
   10th) and the idempotency reply cache's capacity (FIFO eviction). *)
let slow_every = 10
let idem_cap = 4096

type t = {
  registry : (string, Session.t) Hashtbl.t;
  spools : (string, spool) Hashtbl.t;  (* session → open edge-stream upload *)
  queue : item Queue.t;
  max_pending : int;
  max_frame : int;
  jobs : int;
  version : string;
  started_ns : int64;
  slow_ms : float;  (* slow-request threshold; <= 0 disables the log *)
  mutable slow_seen : int;
  anomaly : Obs.Anomaly.t option;
  bundle_dir : string option;
  before_solve : (string -> unit) option;  (* fault-injection hook for tests *)
  mutable bundles : int;
  mutable last_bundle : string option;
  (* Plain request totals, maintained by the engine itself so [stats] can
     always answer them — independent of the [Obs] master switch. *)
  mutable posted : int;
  mutable served : int;
  mutable shutdown : bool;
  (* Durability: the persist layer (journal + checkpoints) and the bounded
     idempotency-id reply cache. *)
  persist : Persist.t option;
  checkpoint_secs : float;
  mutable last_ckpt_ns : int64;
  mutable checkpoints : int;
  mutable recovered : recovery_info option;
  idem_cache : (string, string) Hashtbl.t;
  idem_order : string Queue.t;
}

let create ?(jobs = 1) ?(max_pending = 64) ?(max_frame = P.default_max_frame)
    ?(version = "dev") ?(slow_ms = 100.0) ?anomaly ?bundle_dir ?before_solve ?persist
    ?(checkpoint_secs = 0.0) () =
  if max_pending < 1 then invalid_arg "Engine.create: max_pending must be positive";
  {
    registry = Hashtbl.create 8;
    spools = Hashtbl.create 4;
    queue = Queue.create ();
    max_pending;
    max_frame;
    jobs;
    version;
    started_ns = Obs.Span.now_ns ();
    slow_ms;
    slow_seen = 0;
    anomaly;
    bundle_dir;
    before_solve;
    bundles = 0;
    last_bundle = None;
    posted = 0;
    served = 0;
    shutdown = false;
    persist;
    checkpoint_secs;
    last_ckpt_ns = Obs.Span.now_ns ();
    checkpoints = 0;
    recovered = None;
    idem_cache = Hashtbl.create 64;
    idem_order = Queue.create ();
  }

let max_frame t = t.max_frame
let shutting_down t = t.shutdown
let pending t = Queue.length t.queue
let sessions t = Hashtbl.length t.registry
let uptime_s t = Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t.started_ns)

let int_j n = J.Num (float_of_int n)

let event op session =
  if Obs.is_enabled () then
    Obs.Events.emit "server.request"
      (Obs.Events.str "op" op :: (match session with None -> [] | Some s -> [ Obs.Events.str "session" s ]))

let placed_fields (p : Session.placed) =
  [ ("moved", int_j p.Session.moved); ("infeasible", int_j p.Session.unplaced) ]

(* How a handler refuses a request: [apply] turns it into the error reply. *)
exception Refused of P.error_code * string

let refuse code msg = raise (Refused (code, msg))

let find_session t session =
  match Hashtbl.find_opt t.registry session with
  | Some s -> s
  | None -> refuse P.Unknown_session (Printf.sprintf "unknown session %S" session)

(* Abort an upload: seal (so the channel flushes), close, delete. *)
let drop_spool t session =
  match Hashtbl.find_opt t.spools session with
  | None -> ()
  | Some sp ->
      Hashtbl.remove t.spools session;
      Hyper.Stream_io.close_writer sp.sp_writer;
      (try Sys.remove sp.sp_path with Sys_error _ -> ())

let load_graph source =
  let text =
    match source with
    | `Inline text -> text
    | `Path path -> (
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error msg -> refuse P.Bad_request msg)
  in
  match Hyper.Io.of_string text with
  | h -> h
  | exception Failure msg -> refuse P.Bad_request msg
  | exception Invalid_argument msg -> refuse P.Bad_request ("invalid instance: " ^ msg)

let non_zero_counters () =
  List.rev
    (Obs.Metrics.fold_counters
       (fun name v acc -> if v <> 0 then (name, int_j v) :: acc else acc)
       [])

(* Each op's name, the session it names, and whether its success changes
   session state — the ops the idempotency cache must guard. *)
let describe = function
  | P.Ping -> ("ping", None, false)
  | P.Load { session; _ } -> ("load", Some session, true)
  | P.Add_task { session; _ } -> ("add_task", Some session, true)
  | P.Remove_task { session; _ } -> ("remove_task", Some session, true)
  | P.Kill_proc { session; _ } -> ("kill_proc", Some session, true)
  | P.Resolve { session; _ } -> ("resolve", Some session, true)
  | P.Solve { session } -> ("solve", Some session, true)
  | P.Stats -> ("stats", None, false)
  | P.Metrics -> ("metrics", None, false)
  | P.Sessions -> ("sessions", None, false)
  | P.Snapshot { session } -> ("snapshot", Some session, false)
  | P.Restore { session; _ } -> ("restore", Some session, true)
  | P.Health -> ("health", None, false)
  | P.Dump { session } -> ("dump", session, false)
  | P.Checkpoint -> ("checkpoint", None, false)
  | P.Shutdown -> ("shutdown", None, false)
  (* stream_begin/stream_chunk only touch the transient spool, never a
     resident session — journaling them would be a lie (the spool file does
     not survive a restart, so a replayed stream_end would find nothing). *)
  | P.Stream_begin { session; _ } -> ("stream_begin", Some session, false)
  | P.Stream_chunk { session; _ } -> ("stream_chunk", Some session, false)
  | P.Stream_end { session; _ } -> ("stream_end", Some session, true)

(* The Prometheus exposition: everything Obs holds (counters, phase and
   per-op latency histograms, span totals) plus live engine gauges.  The
   engine is single-threaded across requests, so the render happens between
   requests and reads a consistent snapshot of the registry. *)
let prom t =
  let session_gauges =
    Hashtbl.fold
      (fun sid s acc ->
        let l = [ ("session", sid) ] in
        ("server.session.tasks", l, float_of_int (Session.n_tasks s))
        :: ("server.session.procs", l, float_of_int (Session.n_procs s))
        :: ("server.session.dead_procs", l, float_of_int (Session.dead_procs s))
        :: ("server.session.unplaced", l, float_of_int (List.length (Session.unplaced s)))
        :: ("server.session.makespan", l, Session.makespan s)
        :: acc)
      t.registry []
  in
  let gauges =
    [
      ("server.sessions", [], float_of_int (sessions t));
      ("server.spools", [], float_of_int (Hashtbl.length t.spools));
      ("stream.peak_state_words", [], float_of_int (Stream.Kr.peak_state_words ()));
      ("server.pending", [], float_of_int (pending t));
      ("server.max_pending", [], float_of_int t.max_pending);
      ("server.uptime_seconds", [], uptime_s t);
      ("server.requests_posted", [], float_of_int t.posted);
      ("server.requests_served", [], float_of_int t.served);
    ]
    @ (match t.anomaly with
      | None -> []
      | Some a -> [ ("server.anomaly_firings", [], float_of_int (Obs.Anomaly.firings a)) ])
    @ (match t.persist with
      | None -> []
      | Some _ -> [ ("server.checkpoints", [], float_of_int t.checkpoints) ])
    @ (match t.recovered with
      | None -> []
      | Some r ->
          [
            ("server.recovery.torn_bytes", [], float_of_int r.rec_torn_bytes);
            ("server.recovery.sessions", [], float_of_int r.rec_sessions);
            ("server.recovery.replay_us", [], r.rec_replay_us);
          ])
    @ session_gauges
  in
  Obs.Prom.render ~gauges ()

(* ---------- durability: idempotency cache, journaling, checkpoints ---------- *)

let seed_idem t key reply =
  if not (Hashtbl.mem t.idem_cache key) then begin
    Queue.push key t.idem_order;
    if Queue.length t.idem_order > idem_cap then
      Hashtbl.remove t.idem_cache (Queue.pop t.idem_order)
  end;
  Hashtbl.replace t.idem_cache key reply

(* Seed the idempotency cache with a step's replies and, with a persist
   dir, append its journal group — before the caller flushes any reply. *)
let journal t (g : Persist.group) =
  List.iter (fun (k, reply) -> seed_idem t k reply) g.Persist.g_cached;
  match t.persist with
  | Some p when g.Persist.g_lines <> [] ->
      Persist.log p ~lines:g.Persist.g_lines ~cached:g.Persist.g_cached
  | _ -> ()

let do_checkpoint t =
  match t.persist with
  | None -> Error "no persist dir configured (serve --persist-dir)"
  | Some p -> (
      let sessions =
        Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t.registry []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (sid, s) -> (sid, Session.snapshot s))
      in
      match Persist.checkpoint p ~sessions with
      | Ok name ->
          t.checkpoints <- t.checkpoints + 1;
          Ok name
      | Error msg ->
          Obs.Events.emit ~level:Obs.Events.Warn "server.checkpoint.failed"
            [ Obs.Events.str "error" msg ];
          Error msg)

(* ---------- diagnostic bundles ---------- *)

(* The instance to embed: an explicit session when the trigger names one,
   otherwise the only resident session (ambiguity means none — a bundle
   must never guess which tenant's data to copy out). *)
let bundle_session t = function
  | Some sid -> Hashtbl.find_opt t.registry sid |> Option.map (fun s -> (sid, s))
  | None -> (
      match Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t.registry [] with
      | [ one ] -> Some one
      | _ -> None)

(* Turn a firing (or a manual dump) into a bundle directory.  Total: bundle
   I/O failure is reported as a warn event, never a dead request. *)
let write_bundle t ~trigger ?rule ?(detail = []) ?raw ?session () =
  match t.bundle_dir with
  | None -> Error "no bundle directory configured (serve --bundle-dir)"
  | Some dir -> (
      let request_json =
        J.to_string
          (J.Obj
             ((match raw with None -> [] | Some line -> [ ("raw", J.Str line) ])
             @ (match session with None -> [] | Some s -> [ ("session", J.Str s) ])
             @ [ ("trigger", J.Str trigger); ("detail", J.Obj detail) ]))
      in
      let instance_files =
        match bundle_session t session with
        | None -> []
        | Some (sid, s) ->
            [
              ("instance.hg", Session.instance_text s);
              ( "session.json",
                J.to_string (J.Obj [ ("id", J.Str sid); ("state", Session.snapshot s) ]) );
            ]
      in
      match
        Obs.Recorder.write_bundle ~dir ~trigger ?rule ~detail ~prom:(prom t)
          ~extra:(("request.json", request_json) :: instance_files)
          ~version:t.version ()
      with
      | Ok bundle ->
          t.bundles <- t.bundles + 1;
          t.last_bundle <- Some bundle;
          Ok bundle
      | Error msg ->
          Obs.Events.emit ~level:Obs.Events.Warn "bundle.failed"
            [ Obs.Events.str "trigger" trigger; Obs.Events.str "error" msg ];
          Error msg)

(* Feed one observation to the anomaly rules, when armed, and bundle any
   firing. *)
let observe t ?raw ?session check =
  match Option.bind t.anomaly check with
  | None -> ()
  | Some (f : Obs.Anomaly.firing) ->
      ignore
        (write_bundle t
           ~trigger:(Obs.Anomaly.rule_kind f.Obs.Anomaly.f_rule)
           ~rule:(Obs.Anomaly.rule_to_string f.Obs.Anomaly.f_rule)
           ~detail:f.Obs.Anomaly.f_detail ?raw ?session ())

(* ---------- health ---------- *)

(* Cheap and always-on: every field is an in-memory read (counters, queue
   length, watchdog atomics) — no solver work, no I/O, no rendering. *)
let health_fields t =
  let now = Obs.Span.now_ns () in
  let wd = Option.map Obs.Anomaly.watchdog t.anomaly in
  let stuck =
    match (t.anomaly, wd) with
    | Some a, Some w -> (
        w.Obs.Anomaly.w_inflight
        &&
        match Obs.Anomaly.stall_ms a with
        | Some ms -> w.Obs.Anomaly.w_silent_ms >= ms
        | None -> false)
    | _ -> false
  in
  let recent_firing =
    match t.anomaly with
    | None -> None
    | Some a -> (
        match Obs.Anomaly.last_firing a with
        | Some (rule, ts) ->
            let age_s = Obs.Span.ns_to_s (Int64.sub now ts) in
            if age_s <= 60.0 then Some (rule, age_s) else None
        | None -> None)
  in
  let queue_pressure = pending t * 5 >= t.max_pending * 4 in
  let status =
    if stuck then "stuck"
    else if queue_pressure || recent_firing <> None then "degraded"
    else "ready"
  in
  [
    ("status", J.Str status);
    ("uptime_s", J.Num (uptime_s t));
    ("pending", int_j (pending t));
    ("max_pending", int_j t.max_pending);
    ("sessions", int_j (sessions t));
    ("posted", int_j t.posted);
    ("served", int_j t.served);
    ("bundles", int_j t.bundles);
  ]
  @ (match t.last_bundle with None -> [] | Some dir -> [ ("last_bundle", J.Str dir) ])
  @ (match t.persist with
    | None -> []
    | Some p ->
        [
          ( "persist",
            J.Obj
              ([
                 ("epoch", int_j (Persist.epoch p));
                 ("journal_records", int_j (Persist.journal_records p));
                 ("checkpoints", int_j t.checkpoints);
               ]
              @
              match t.recovered with
              | None -> []
              | Some r ->
                  [
                    ("recovered_records", int_j r.rec_records);
                    ("recovered_sessions", int_j r.rec_sessions);
                    ("torn_bytes", int_j r.rec_torn_bytes);
                  ]) );
        ])
  @ (match wd with
    | None -> []
    | Some w ->
        [
          ( "watchdog",
            J.Obj
              ([ ("inflight", J.Bool w.Obs.Anomaly.w_inflight) ]
              @ (match w.Obs.Anomaly.w_op with None -> [] | Some op -> [ ("op", J.Str op) ])
              @ [
                  ("silent_ms", J.Num w.Obs.Anomaly.w_silent_ms);
                  ("beats", int_j w.Obs.Anomaly.w_beats);
                ]) );
        ])
  @ (match t.anomaly with
    | None -> []
    | Some a ->
        [
          ( "anomaly",
            J.Obj
              ([
                 ( "rules",
                   J.List
                     (List.map
                        (fun r -> J.Str (Obs.Anomaly.rule_to_string r))
                        (Obs.Anomaly.rules a)) );
                 ("firings", int_j (Obs.Anomaly.firings a));
               ]
              @
              match recent_firing with
              | None -> []
              | Some (rule, age_s) ->
                  [ ("last_rule", J.Str rule); ("last_age_s", J.Num age_s) ]) );
        ])
  @
  match Obs.Recorder.config () with
  | None -> [ ("recorder", J.Obj [ ("enabled", J.Bool false) ]) ]
  | Some cfg ->
      [
        ( "recorder",
          J.Obj
            [
              ("enabled", J.Bool true);
              ("window_s", J.Num cfg.Obs.Recorder.window_s);
              ("snapshots", int_j (List.length (Obs.Recorder.snapshots ())));
            ] );
      ]

(* ---------- the step: handlers, [apply] ---------- *)

(* What the journal must record for a successful step. *)
type record =
  | Nothing
  | Raw  (* the request lines: their replay is deterministic *)
  | State of Session.t
      (* the session's resulting state, as a synthesized [restore]: replay
         of the request could diverge (a [path] source may change, a
         budgeted search is time-dependent, a spool file is gone) *)

(* A run of add_tasks for one session: one Repair.place pass over the new
   tasks.  Returns each request's reply fields, tagged with the batch size
   it rode in. *)
let add_tasks t session batch =
  let s = find_session t session in
  match Session.add_tasks s batch with
  | Error msg -> refuse P.Bad_request msg
  | Ok (tids, p) ->
      let n = List.length batch in
      let makespan = Session.makespan s in
      List.map
        (fun tid ->
          [ ("tid", int_j tid); ("batched", int_j n); ("makespan", J.Num makespan) ]
          @ placed_fields p)
        tids

(* One request: its reply fields and what the journal must record.  Failures
   raise [Refused]. *)
let handle t = function
  | P.Ping -> ([ ("pong", J.Bool true) ], Nothing)
  | P.Load { session; source } ->
      let s, p = Session.of_graph ~id:session (load_graph source) in
      Hashtbl.replace t.registry session s;
      ( [
          ("session", J.Str session);
          ("tasks", int_j (Session.n_tasks s));
          ("procs", int_j (Session.n_procs s));
          ("makespan", J.Num (Session.makespan s));
          ("lower_bound", J.Num (Session.lower_bound s));
        ]
        @ placed_fields p,
        State s )
  | P.Add_task { session; configs } -> (List.hd (add_tasks t session [ configs ]), Raw)
  | P.Remove_task { session; task } -> (
      match Session.remove_task (find_session t session) task with
      | Error msg -> refuse P.Bad_request msg
      | Ok makespan -> ([ ("task", int_j task); ("makespan", J.Num makespan) ], Raw))
  | P.Kill_proc { session; proc } -> (
      let s = find_session t session in
      match Session.kill_proc s proc with
      | Error msg -> refuse P.Bad_request msg
      | Ok p ->
          ( [
              ("proc", int_j proc);
              ("affected", int_j p.Session.affected);
              ("makespan", J.Num (Session.makespan s));
            ]
            @ placed_fields p,
            Raw ))
  | P.Resolve { session; budget_ms } ->
      let s = find_session t session in
      let d, replaced = Session.resolve ~jobs:t.jobs ~budget_s:(budget_ms /. 1000.0) s in
      if replaced then Obs.Metrics.incr c_adopted;
      ( [
          ("tier", J.Str (Semimatch.Deadline.tier_name d.Semimatch.Deadline.d_tier));
          ("degraded", J.Bool d.Semimatch.Deadline.d_degraded);
          ("replaced", J.Bool replaced);
          ("makespan", J.Num (Session.makespan s));
          ("lower_bound", J.Num d.Semimatch.Deadline.d_lower_bound);
          ("elapsed_ms", J.Num (1000.0 *. d.Semimatch.Deadline.d_elapsed_s));
        ],
        (* An unadopted resolve left the incumbent untouched. *)
        if replaced then State s else Nothing )
  | P.Solve { session } ->
      let s = find_session t session in
      let d = Session.solve ~jobs:t.jobs s in
      ( [
          ("tier", J.Str (Semimatch.Deadline.tier_name d.Semimatch.Deadline.d_tier));
          ("makespan", J.Num (Session.makespan s));
          ("lower_bound", J.Num d.Semimatch.Deadline.d_lower_bound);
          ("infeasible", int_j (List.length (Session.unplaced s)));
          ("elapsed_ms", J.Num (1000.0 *. d.Semimatch.Deadline.d_elapsed_s));
        ],
        State s )
  | P.Stats ->
      (* The basics (uptime, version, request totals, sessions, pending)
         come from the engine's own state and are always live; only the
         [counters] object depends on Obs being enabled (empty otherwise). *)
      ( [
          ("uptime_s", J.Num (uptime_s t));
          ("version", J.Str t.version);
          ("requests", int_j t.posted);
          ("served", int_j t.served);
          ("sessions", int_j (sessions t));
          ("pending", int_j (pending t));
          ("counters", J.Obj (if Obs.is_enabled () then non_zero_counters () else []));
        ],
        Nothing )
  | P.Metrics -> ([ ("exposition", J.Str (prom t)) ], Nothing)
  | P.Sessions ->
      let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.registry []) in
      ([ ("sessions", J.List (List.map (fun s -> J.Str s) ids)) ], Nothing)
  | P.Snapshot { session } -> ([ ("state", Session.snapshot (find_session t session)) ], Nothing)
  | P.Restore { session; state } -> (
      match Session.restore ~id:session state with
      | Error msg -> refuse P.Bad_request msg
      | Ok s ->
          Hashtbl.replace t.registry session s;
          ( [
              ("session", J.Str session);
              ("tasks", int_j (Session.n_tasks s));
              ("procs", int_j (Session.n_procs s));
              ("makespan", J.Num (Session.makespan s));
            ],
            Raw ))
  | P.Health -> (health_fields t, Nothing)
  | P.Dump { session } -> (
      Option.iter (fun sid -> ignore (find_session t sid)) session;
      match write_bundle t ~trigger:"manual" ?session () with
      | Ok dir -> ([ ("dir", J.Str dir); ("bundles", int_j t.bundles) ], Nothing)
      | Error msg -> refuse P.Bad_request msg)
  | P.Checkpoint -> (
      match do_checkpoint t with
      | Ok dir ->
          ( [
              ("dir", J.Str dir);
              ("sessions", int_j (sessions t));
              ("checkpoints", int_j t.checkpoints);
            ],
            Nothing )
      | Error msg -> refuse P.Bad_request msg)
  | P.Shutdown ->
      t.shutdown <- true;
      ([ ("shutting_down", J.Bool true) ], Nothing)
  | P.Stream_begin { session; n1; n2 } -> (
      (* A re-begin replaces any half-built spool for the session — the
         retry story for a client that lost its connection mid-upload
         (spools are transient, never journaled). *)
      drop_spool t session;
      let path = Filename.temp_file "semimatch-stream-" ".sms" in
      match Hyper.Stream_io.create_writer ~path ~n1 ~n2 () with
      | w ->
          Hashtbl.replace t.spools session { sp_writer = w; sp_path = path };
          ([ ("session", J.Str session); ("spooling", J.Bool true) ], Nothing)
      | exception Invalid_argument msg ->
          (try Sys.remove path with Sys_error _ -> ());
          refuse P.Bad_request msg)
  | P.Stream_chunk { session; edges } -> (
      match Hashtbl.find_opt t.spools session with
      | None ->
          refuse P.Bad_request
            (Printf.sprintf "no open stream upload for session %S (send stream_begin first)"
               session)
      | Some sp -> (
          match
            List.iter
              (fun (task, (c : P.config)) ->
                Hyper.Stream_io.add sp.sp_writer ~task ~procs:c.P.procs ~weight:c.P.weight)
              edges
          with
          | () ->
              ( [
                  ("session", J.Str session);
                  ("records", int_j (Hyper.Stream_io.writer_records sp.sp_writer));
                ],
                Nothing )
          | exception Invalid_argument msg ->
              (* The spool is poisoned mid-chunk: drop it so the client
                 restarts cleanly instead of sealing a half-applied batch. *)
              drop_spool t session;
              refuse P.Bad_request msg))
  | P.Stream_end { session; threshold_mb; solver } -> (
      match Hashtbl.find_opt t.spools session with
      | None ->
          refuse P.Bad_request (Printf.sprintf "no open stream upload for session %S" session)
      | Some sp -> (
          Hashtbl.remove t.spools session;
          Hyper.Stream_io.close_writer sp.sp_writer;
          let o =
            Fun.protect
              ~finally:(fun () -> try Sys.remove sp.sp_path with Sys_error _ -> ())
              (fun () ->
                let stream_solver =
                  Option.map
                    (fun name ->
                      match Stream.Ingest.stream_solver_of_string name with
                      | Some s -> s
                      | None ->
                          refuse P.Bad_request
                            (Printf.sprintf
                               "unknown stream solver %S (auto | one-pass | few-pass)" name))
                    solver
                in
                let threshold_words =
                  Option.map (fun mb -> mb * (1024 * 1024 / (Sys.word_size / 8))) threshold_mb
                in
                match
                  Stream.Ingest.solve ~jobs:t.jobs ?threshold_words ?stream_solver sp.sp_path
                with
                | o -> o
                | exception Failure msg -> refuse P.Bad_request msg
                | exception Invalid_argument msg ->
                    refuse P.Bad_request ("infeasible stream: " ^ msg))
          in
          let base =
            [
              ("session", J.Str session);
              ("tier", J.Str (Stream.Ingest.tier_name o.Stream.Ingest.tier));
              ("makespan", J.Num o.Stream.Ingest.makespan);
              ("lower_bound", J.Num o.Stream.Ingest.lower_bound);
              ("guarantee", J.Str o.Stream.Ingest.guarantee);
              ("passes", int_j o.Stream.Ingest.passes);
              ("edges", int_j o.Stream.Ingest.edges);
            ]
            @
            if Float.is_finite o.Stream.Ingest.factor then
              [ ("factor", J.Num o.Stream.Ingest.factor) ]
            else []
          in
          match o.Stream.Ingest.graph with
          | Some h ->
              (* In-core fallback: the instance becomes a resident session
                 exactly as [load] would make it (greedy incumbent; the
                 client can [solve]/[resolve] from here on). *)
              let s, p = Session.of_graph ~id:session h in
              Hashtbl.replace t.registry session s;
              ( base
                @ [
                    ("resident", J.Bool true);
                    ("tasks", int_j (Session.n_tasks s));
                    ("procs", int_j (Session.n_procs s));
                    ("session_makespan", J.Num (Session.makespan s));
                  ]
                @ placed_fields p,
                State s )
          | None -> (base @ [ ("resident", J.Bool false) ], Nothing)))

let state_line s =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "restore");
         ("session", J.Str (Session.id s));
         ("state", Session.snapshot s);
       ])

(* The one step that changes engine state, shared by [drain] (live
   requests) and [recover] (journal replay): a single request, or a run of
   add_tasks for one session, each paired with its request line.  Returns
   one reply per request and, for a step that succeeded, the journal group
   it must append (no lines when there is nothing to record) carrying the
   replies that mutations' idem keys cache; a failed step returns its error
   code and message instead.  Total: an internal failure becomes an
   [internal] error. *)
let apply t items =
  let leader, _ = List.hd items in
  let op, session, mutates = describe leader.P.req in
  (* A tight readiness probe must not flood the event ring. *)
  if leader.P.req <> P.Health then event op session;
  let outcome =
    Obs.Span.timed ("server." ^ op) (fun () ->
        try
          match items with
          | [ (p, _) ] ->
              let fields, record = handle t p.P.req in
              Ok ([ fields ], record)
          | _ ->
              let configs (p, _) =
                match p.P.req with
                | P.Add_task { session = s; configs } when Some s = session -> configs
                | _ -> invalid_arg "Engine.apply: only add_tasks for one session share a step"
              in
              Ok (add_tasks t (Option.get session) (List.map configs items), Raw)
        with
        | Refused (code, msg) -> Error (code, msg)
        | exn ->
            Obs.Metrics.incr c_errors;
            Error (P.Internal, Printexc.to_string exn))
  in
  match outcome with
  | Error (code, msg) ->
      (List.map (fun (p, _) -> P.error_reply ?id:p.P.id ~code msg) items, Error (code, msg))
  | Ok (fields, record) ->
      let replies = List.map2 (fun (p, _) f -> P.ok_reply ?id:p.P.id ~op f) items fields in
      let cached =
        if not mutates then []
        else
          List.filter_map
            (fun ((p, _), reply) -> Option.map (fun k -> (k, reply)) p.P.idem)
            (List.combine items replies)
      in
      let lines =
        match record with
        | Nothing -> []
        | Raw -> List.map snd items
        | State s -> [ state_line s ]
      in
      (replies, Ok { Persist.g_lines = lines; g_cached = cached })

(* ---------- live requests: admission, drain ---------- *)

let us_between later earlier = Int64.to_float (Int64.sub later earlier) /. 1e3

(* Send one reply, then the end-of-request accounting: phase histograms
   (queue wait and reply per request; the handler phase is observed once
   per step by the caller), per-op end-to-end latency, the always-on
   served total, the sampled slow-request log and the latency rules. *)
let finish t op ?session item reply ~done_ns =
  item.reply reply;
  let replied_ns = Obs.Span.now_ns () in
  Obs.Metrics.observe h_reply (us_between replied_ns done_ns);
  let total_us = us_between replied_ns item.posted_ns in
  Obs.Metrics.observe (latency_hist op) total_us;
  t.served <- t.served + 1;
  let total_ms = total_us /. 1000.0 in
  if t.slow_ms > 0.0 && total_ms >= t.slow_ms then begin
    t.slow_seen <- t.slow_seen + 1;
    if (t.slow_seen - 1) mod slow_every = 0 then
      Obs.Events.emit ~level:Obs.Events.Warn "server.slow_request"
        [
          Obs.Events.str "op" op;
          Obs.Events.num "ms" total_ms;
          Obs.Events.num "threshold_ms" t.slow_ms;
          Obs.Events.int "nth" t.slow_seen;
        ]
  end;
  observe t ~raw:item.raw ?session (fun a -> Obs.Anomaly.observe_request a ~op ~ms:total_ms)

let post t ~reply line =
  t.posted <- t.posted + 1;
  if Queue.length t.queue >= t.max_pending then begin
    Obs.Metrics.incr c_busy;
    observe t ~raw:line Obs.Anomaly.observe_busy;
    (* Best-effort id recovery so the busy reply can still be matched. *)
    let id =
      match P.parse ~max_frame:t.max_frame line with
      | Ok { id; _ } | Error (_, _, id) -> id
    in
    reply
      (P.error_reply ?id ~code:P.Busy
         (Printf.sprintf "pending-request queue full (%d); retry later" t.max_pending))
  end
  else begin
    let t0 = Obs.Span.now_ns () in
    let parsed = P.parse ~max_frame:t.max_frame line in
    let t1 = Obs.Span.now_ns () in
    Obs.Metrics.observe h_parse (us_between t1 t0);
    Queue.push { parsed; raw = line; reply; posted_ns = t1 } t.queue;
    let pending = Queue.length t.queue in
    observe t ~raw:line (fun a -> Obs.Anomaly.observe_queue a ~pending)
  end

(* Watchdog bracketing around the handler phase: the in-flight request is
   captured before the handler runs (so a stuck solve can be bundled from
   the watchdog domain), the test-only [before_solve] stall hook runs
   inside the bracket, and [solve_end]'s post-hoc gap check fires after. *)
let solve_bracket t ~op ?session ~raw f =
  Option.iter (fun a -> Obs.Anomaly.solve_begin a ~op ?session ~request:raw ()) t.anomaly;
  Option.iter (fun hook -> hook raw) t.before_solve;
  let result = f () in
  observe t ~raw ?session Obs.Anomaly.solve_end;
  result

(* The add_tasks queued right behind a leading add_task for the same
   session, popped to share its step.  The run ends at a request whose idem
   key is cached or already in the step ([keys]): it leads the next step,
   where the cache answers it with the recorded reply. *)
let rec coalesce t session keys start_ns =
  match Queue.peek_opt t.queue with
  | Some ({ parsed = Ok ({ P.req = P.Add_task { session = s; _ }; idem; _ } as p); _ } as item)
    when s = session
         && (match idem with
            | None -> true
            | Some k -> not (Hashtbl.mem t.idem_cache k || List.mem k keys)) ->
      ignore (Queue.pop t.queue);
      Obs.Metrics.observe h_queue (us_between start_ns item.posted_ns);
      (item, p) :: coalesce t session (Option.to_list idem @ keys) start_ns
  | _ -> []

let drain t =
  while not (Queue.is_empty t.queue) do
    let item = Queue.pop t.queue in
    let start_ns = Obs.Span.now_ns () in
    Obs.Metrics.observe h_queue (us_between start_ns item.posted_ns);
    match item.parsed with
    | Error (code, msg, id) ->
        Obs.Metrics.incr c_errors;
        finish t "invalid" item (P.error_reply ?id ~code msg) ~done_ns:(Obs.Span.now_ns ())
    | Ok p -> (
        let op, session, mutates = describe p.P.req in
        match if mutates then Option.bind p.P.idem (Hashtbl.find_opt t.idem_cache) else None with
        | Some cached ->
            (* A mutation whose idempotency id is already cached: answer
               with the recorded reply verbatim, apply nothing.  This is
               what makes a client's retry-after-reconnect safe across a
               daemon restart (the journal carries the cache entries). *)
            Obs.Metrics.incr c_idem_hits;
            finish t op ?session item cached ~done_ns:(Obs.Span.now_ns ())
        | None ->
            let step =
              match p.P.req with
              | P.Add_task { session; _ } ->
                  (item, p) :: coalesce t session (Option.to_list p.P.idem) start_ns
              | _ -> [ (item, p) ]
            in
            let n = List.length step in
            Obs.Metrics.add c_requests n;
            if n > 1 then Obs.Metrics.add c_batched n;
            let run () = apply t (List.map (fun (i, p) -> (p, i.raw)) step) in
            let replies, outcome =
              match p.P.req with
              (* The health probe snapshots the watchdog — bracketing it
                 would make every probe report itself as the in-flight
                 solve. *)
              | P.Health -> run ()
              | _ -> solve_bracket t ~op ?session ~raw:item.raw run
            in
            let done_ns = Obs.Span.now_ns () in
            let elapsed_us = us_between done_ns start_ns in
            Obs.Metrics.observe h_solve elapsed_us;
            (match p.P.req with
            | P.Resolve { budget_ms; _ } ->
                observe t ~raw:item.raw ?session (fun a ->
                    Obs.Anomaly.observe_solve a ~op ~budget_ms ~elapsed_ms:(elapsed_us /. 1000.0))
            | _ -> ());
            (* Write-ahead: the journal record is durable before any reply
               is flushed, so an acked mutation is never lost to a crash. *)
            Result.iter (journal t) outcome;
            List.iter2
              (fun (item, _) reply -> finish t op ?session item reply ~done_ns)
              step replies)
  done

(* ---------- crash recovery ---------- *)

let recover t (r : Persist.recovery) =
  let t0 = Obs.Span.now_ns () in
  let failures = ref 0 in
  let fail what detail =
    incr failures;
    Obs.Events.emit ~level:Obs.Events.Warn "server.recovery.failed"
      [ Obs.Events.str "what" what; Obs.Events.str "detail" detail ]
  in
  (* Checkpoint sessions restore directly (no request round-trip: a
     snapshot is its own proof of shape). *)
  List.iter
    (fun (sid, state) ->
      match Session.restore ~id:sid state with
      | Ok s -> Hashtbl.replace t.registry sid s
      | Error msg -> fail ("checkpoint session " ^ sid) msg)
    r.Persist.r_sessions;
  (* Each journal group is one step, applied as it ran live (an add_task
     batch keeps its boundary, which affects placement); then its cached
     replies re-seed the idempotency cache.  The records were admitted
     once already, so the frame cap is lifted. *)
  let parse line =
    match P.parse ~max_frame:max_int line with
    | Ok p -> (p, line)
    | Error (code, msg, _) -> refuse code msg
  in
  let failed (code, msg) = fail "journal record" (P.code_name code ^ ": " ^ msg) in
  let records = ref 0 in
  List.iter
    (fun (g : Persist.group) ->
      records := !records + List.length g.Persist.g_lines;
      (match List.map parse g.Persist.g_lines with
      | [] -> ()
      | items -> Result.iter_error failed (snd (apply t items))
      | exception Refused (code, msg) -> failed (code, msg));
      List.iter (fun (k, reply) -> seed_idem t k reply) g.Persist.g_cached)
    r.Persist.r_groups;
  (* Feasibility recompute on everything that came back. *)
  Hashtbl.iter
    (fun sid s ->
      match Session.verify s with
      | Ok () -> ()
      | Error msg ->
          incr failures;
          Obs.Events.emit ~level:Obs.Events.Warn "server.recovery.infeasible"
            [ Obs.Events.str "session" sid; Obs.Events.str "error" msg ])
    t.registry;
  let info =
    {
      rec_records = !records;
      rec_torn_bytes = r.Persist.r_torn_bytes;
      rec_sessions = sessions t;
      rec_checkpoint = r.Persist.r_checkpoint;
      rec_replay_us = us_between (Obs.Span.now_ns ()) t0;
      rec_failures = !failures;
    }
  in
  t.recovered <- Some info;
  Obs.Metrics.add c_recovery_records !records;
  Obs.Events.emit "server.recovered"
    [
      Obs.Events.int "records" info.rec_records;
      Obs.Events.int "torn_bytes" info.rec_torn_bytes;
      Obs.Events.int "sessions" info.rec_sessions;
      Obs.Events.str "checkpoint" (Option.value info.rec_checkpoint ~default:"(none)");
      Obs.Events.num "replay_us" info.rec_replay_us;
      Obs.Events.int "failures" info.rec_failures;
    ];
  info

(* Resident sessions in deterministic (sorted) order — what the chaos
   harness and [doctor] compare snapshots over. *)
let resident t =
  Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t.registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Final checkpoint (best-effort: shutdown must not hang on a full disk)
   then release the journal fd.  After this the persist dir is exactly
   what a restart recovers from. *)
let close_persist t =
  match t.persist with
  | None -> ()
  | Some p ->
      ignore (do_checkpoint t : (string, string) result);
      Persist.close p

(* Host-loop pulse between requests: recorder snapshots, the periodic
   anomaly poll (heap growth), the journal's interval fsync, and the
   checkpoint cadence.  The daemon calls this every select round. *)
let tick t =
  ignore (Obs.Recorder.tick ~prom:(fun () -> prom t) ());
  (match t.persist with
  | None -> ()
  | Some p ->
      Persist.tick p;
      if t.checkpoint_secs > 0.0 then begin
        let now = Obs.Span.now_ns () in
        if Obs.Span.ns_to_s (Int64.sub now t.last_ckpt_ns) >= t.checkpoint_secs then begin
          t.last_ckpt_ns <- now;
          ignore (do_checkpoint t : (string, string) result)
        end
      end);
  observe t Obs.Anomaly.poll

let bundles_written t = t.bundles
let last_bundle t = t.last_bundle
