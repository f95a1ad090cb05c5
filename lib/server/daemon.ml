type opts = {
  socket_path : string option;
  tcp_port : int option;
  jobs : int;
  max_pending : int;
  max_frame : int;
  events_log : string option;
  trace_out : string option;
  version : string;
  slow_ms : float;
  bundle_dir : string option;
  record_secs : float;
  triggers : Obs.Anomaly.rule list;
  persist_dir : string option;
  fsync : Journal.policy;
  checkpoint_secs : float;
}

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes of the current, incomplete frame *)
  mutable skipping : bool;  (* dropping an oversized frame up to its newline *)
  mutable closed : bool;
}

let c_conns = Obs.Metrics.counter "server.connections"
let c_frames_dropped = Obs.Metrics.counter "server.frames_dropped"
let c_bytes_in = Obs.Metrics.counter "server.bytes_in"
let c_bytes_out = Obs.Metrics.counter "server.bytes_out"

(* Synchronous full write; a peer that vanished mid-reply just closes the
   connection (SIGPIPE is ignored for the daemon's lifetime). *)
let send conn line =
  if not conn.closed then begin
    let bytes = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length bytes in
    Obs.Metrics.add c_bytes_out len;
    let off = ref 0 in
    try
      while !off < len do
        off := !off + Unix.write conn.fd bytes !off (len - !off)
      done
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> conn.closed <- true
  end

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  fd

(* Feed a chunk of bytes into the connection's frame assembler, posting
   every complete line.  While [skipping], bytes are discarded without
   buffering, so an oversized frame costs O(chunk) memory however long it
   is — that is the unbounded-allocation guard the frame cap promises. *)
let feed engine conn chunk =
  let data = ref chunk in
  while !data <> "" do
    if conn.skipping then
      match String.index_opt !data '\n' with
      | None -> data := ""
      | Some i ->
          conn.skipping <- false;
          data := String.sub !data (i + 1) (String.length !data - i - 1)
    else
      match String.index_opt !data '\n' with
      | None ->
          conn.pending <- conn.pending ^ !data;
          data := "";
          if String.length conn.pending > Engine.max_frame engine then begin
            Obs.Metrics.incr c_frames_dropped;
            send conn
              (Protocol.error_reply ~code:Protocol.Too_large
                 (Printf.sprintf "frame exceeds the %d-byte cap" (Engine.max_frame engine)));
            conn.pending <- "";
            conn.skipping <- true
          end
      | Some i ->
          let line = conn.pending ^ String.sub !data 0 i in
          conn.pending <- "";
          data := String.sub !data (i + 1) (String.length !data - i - 1);
          let line =
            if String.length line > 0 && line.[String.length line - 1] = '\r' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          if String.length line > Engine.max_frame engine then begin
            Obs.Metrics.incr c_frames_dropped;
            send conn
              (Protocol.error_reply ~code:Protocol.Too_large
                 (Printf.sprintf "frame exceeds the %d-byte cap" (Engine.max_frame engine)))
          end
          else if line <> "" then Engine.post engine ~reply:(send conn) line
  done

let run opts =
  if opts.socket_path = None && opts.tcp_port = None then
    invalid_arg "Daemon.run: configure a Unix socket path or a TCP port";
  Obs.set_enabled true;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* SIGTERM/SIGINT request the same graceful exit a [shutdown] op does:
     finish the select round, flush replies, write a final checkpoint.
     kill -9 is the crash the journal exists for. *)
  let signalled = ref None in
  let on_signal s = signalled := Some s in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> on_signal "SIGTERM"))
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> on_signal "SIGINT"))
   with Invalid_argument _ -> ());
  Obs.Runtime.start ();
  (* Flight recorder: size the rings for the requested window and start the
     periodic exposition snapshots. *)
  if opts.record_secs > 0.0 then
    Obs.Recorder.start
      ~config:{ Obs.Recorder.default_config with Obs.Recorder.window_s = opts.record_secs }
      ();
  (* Trigger evaluation is on whenever bundles can land somewhere or rules
     were given explicitly; a bundle dir with no rules gets the default
     conservative set. *)
  let anomaly =
    match (opts.bundle_dir, opts.triggers) with
    | None, [] -> None
    | _, (_ :: _ as rules) -> Some (Obs.Anomaly.create rules)
    | Some _, [] -> Some (Obs.Anomaly.create Obs.Anomaly.default_rules)
  in
  (* Durability: open (or create) the persist dir — which truncates any
     torn journal tail — then rebuild state from it before serving. *)
  let persist, recovery =
    match opts.persist_dir with
    | None -> (None, None)
    | Some dir ->
        let p, r = Persist.open_ ~dir ~policy:opts.fsync ~version:opts.version in
        (Some p, Some r)
  in
  let engine =
    Engine.create ~jobs:opts.jobs ~max_pending:opts.max_pending ~max_frame:opts.max_frame
      ~version:opts.version ~slow_ms:opts.slow_ms ?anomaly ?bundle_dir:opts.bundle_dir ?persist
      ~checkpoint_secs:opts.checkpoint_secs ()
  in
  Option.iter (fun r -> ignore (Engine.recover engine r : Engine.recovery_info)) recovery;
  (* The stall watchdog cannot run on the engine thread (a stuck solve
     serves nothing, including its own health checks): a background domain
     polls the heartbeat and writes a partial bundle — trace, events,
     exposition, the offending request, no instance dump (session state
     belongs to the engine thread) — while the stall is still happening.
     The engine's own post-hoc check adds the full bundle if the solve
     eventually returns (cooldown keeps that to one bundle per stall). *)
  let wd_stop = Atomic.make false in
  let watchdog =
    match (anomaly, opts.bundle_dir) with
    | Some a, Some dir when Obs.Anomaly.stall_ms a <> None ->
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get wd_stop) do
                 Unix.sleepf 0.05;
                 match Obs.Anomaly.check_stuck a with
                 | None -> ()
                 | Some f ->
                     ignore
                       (Obs.Recorder.write_bundle ~dir
                          ~trigger:(Obs.Anomaly.rule_kind f.Obs.Anomaly.f_rule)
                          ~rule:(Obs.Anomaly.rule_to_string f.Obs.Anomaly.f_rule)
                          ~detail:f.Obs.Anomaly.f_detail ~version:opts.version ())
               done))
    | _ -> None
  in
  let listeners =
    (match opts.socket_path with None -> [] | Some p -> [ listen_unix p ])
    @ (match opts.tcp_port with None -> [] | Some p -> [ listen_tcp p ])
  in
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  while (not (Engine.shutting_down engine)) && !signalled = None do
    let client_fds = List.map (fun c -> c.fd) !conns in
    match Unix.select (listeners @ client_fds) [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun lfd ->
            if List.memq lfd readable then begin
              let fd, _ = Unix.accept lfd in
              Obs.Metrics.incr c_conns;
              conns := { fd; pending = ""; skipping = false; closed = false } :: !conns
            end)
          listeners;
        List.iter
          (fun conn ->
            if (not conn.closed) && List.memq conn.fd readable then
              match Unix.read conn.fd buf 0 (Bytes.length buf) with
              | 0 -> conn.closed <- true
              | n ->
                  Obs.Metrics.add c_bytes_in n;
                  feed engine conn (Bytes.sub_string buf 0 n)
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  conn.closed <- true)
          !conns;
        (* Serve everything admitted this round — including a shutdown, whose
           reply is flushed before the loop condition is re-checked. *)
        Engine.drain engine;
        (* Replay whatever GC/runtime activity the round produced into the
           span ring, so the trace interleaves it with the request spans. *)
        ignore (Obs.Runtime.poll ());
        (* Recorder snapshot + periodic anomaly poll (heap growth). *)
        Engine.tick engine;
        List.iter (fun c -> if c.closed then try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
        conns := List.filter (fun c -> not c.closed) !conns
  done;
  (match !signalled with
  | None -> ()
  | Some s -> Obs.Events.emit "server.signal_shutdown" [ Obs.Events.str "signal" s ]);
  Atomic.set wd_stop true;
  Option.iter Domain.join watchdog;
  Obs.Runtime.stop ();
  (* Final checkpoint + journal close before the logs are written, so the
     checkpoint event itself lands in the event log. *)
  Engine.close_persist engine;
  (match opts.events_log with
  | None -> ()
  | Some path -> ( try Obs.Events.write_jsonl path with Sys_error _ -> ()));
  (match opts.trace_out with
  | None -> ()
  | Some path -> ( try Obs.Trace.write_file path with Sys_error _ -> ()));
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  match opts.socket_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ()
