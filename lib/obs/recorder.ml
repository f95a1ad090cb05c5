(* The flight recorder: keep the last N seconds of telemetry resident and
   cheap, and turn it into a self-contained diagnostic bundle directory the
   moment something goes wrong.

   Recording reuses what already exists — the [Span] ring, the [Events]
   log, the GC records [Runtime] replays into the span ring — and adds the
   one thing they lack: a bounded ring of periodic Prometheus snapshots, so
   a bundle shows how the gauges and histograms were moving before the
   trigger, not just their final value.  [start] resizes the span and event
   rings to the configured capacities (16,384 records each by default,
   whatever [window_s] is: the window only cuts older records out of a
   bundle, so a busy process can lap a ring before the window ends) and
   flips the master switch; [tick] is called by the host loop (the daemon
   does so every select round) and takes a snapshot when one is due.
   Memory stays bounded by the ring capacities whatever the uptime.

   A bundle is one directory:

     manifest.json    format tag, trigger, rule, detail, timestamps,
                      version, window, file list with byte sizes
     trace.json       Chrome/Perfetto slice of the recording window
     events.jsonl     event-log tail of the window
     metrics.prom     full Prometheus exposition at the trigger instant
     snapshots.jsonl  the periodic exposition ring, oldest first
     ...extra         caller-supplied files (the offending request, a
                      Hyper.Io instance dump for replay)

   The manifest is written last, so its presence marks a complete bundle —
   [semimatch doctor] treats a directory without one as corrupt. *)

type config = {
  window_s : float;  (* how far back a bundle's trace and event tail reach *)
  span_capacity : int;
  event_capacity : int;
  snapshot_every_s : float;
  max_snapshots : int;
}

let default_config =
  {
    window_s = 30.0;
    span_capacity = 16384;
    event_capacity = 16384;
    snapshot_every_s = 5.0;
    max_snapshots = 64;
  }

type snapshot = { snap_ts_ns : int64; snap_prom : string }

type state = {
  cfg : config;
  snaps : snapshot Queue.t;  (* oldest first, bounded by max_snapshots *)
  mutable last_snap_ns : int64;
}

let lock = Mutex.create ()
let state : state option ref = ref None

let started () = Mutex.protect lock (fun () -> !state <> None)

let config () = Mutex.protect lock (fun () -> Option.map (fun s -> s.cfg) !state)

let start ?(config = default_config) () =
  if config.window_s <= 0.0 then invalid_arg "Recorder.start: window_s must be positive";
  if config.snapshot_every_s <= 0.0 then
    invalid_arg "Recorder.start: snapshot_every_s must be positive";
  if config.max_snapshots < 1 then invalid_arg "Recorder.start: max_snapshots must be positive";
  Span.set_capacity config.span_capacity;
  Events.set_capacity config.event_capacity;
  Config.enabled := true;
  Mutex.protect lock (fun () ->
      state := Some { cfg = config; snaps = Queue.create (); last_snap_ns = 0L })

let stop () = Mutex.protect lock (fun () -> state := None)

(* Host-loop pulse: snapshot the exposition when one is due.  [prom]
   supplies the rendering (the engine passes its gauge-enriched exposition)
   and is only evaluated when a snapshot is actually taken.  Returns
   whether one was. *)
let tick ?(prom = fun () -> Prom.render ()) () =
  let due =
    Mutex.protect lock (fun () ->
        match !state with
        | None -> None
        | Some s ->
            let now = Span.now_ns () in
            let every = Int64.of_float (s.cfg.snapshot_every_s *. 1e9) in
            if Int64.compare (Int64.sub now s.last_snap_ns) every >= 0 then begin
              s.last_snap_ns <- now;
              Some (s, now)
            end
            else None)
  in
  match due with
  | None -> false
  | Some (s, now) ->
      let text = prom () in
      Mutex.protect lock (fun () ->
          Queue.push { snap_ts_ns = now; snap_prom = text } s.snaps;
          while Queue.length s.snaps > s.cfg.max_snapshots do
            ignore (Queue.pop s.snaps)
          done);
      true

let snapshots () =
  Mutex.protect lock (fun () ->
      match !state with
      | None -> []
      | Some s -> List.of_seq (Queue.to_seq s.snaps))

(* Start of the recording window: everything older is outside the bundle.
   Without a running recorder the window is unbounded (a manual [dump]
   against a plain daemon still collects whatever the rings hold). *)
let since_ns () =
  match config () with
  | None -> Int64.min_int
  | Some cfg ->
      let now = Span.now_ns () in
      let w = Int64.of_float (cfg.window_s *. 1e9) in
      if Int64.compare now w > 0 then Int64.sub now w else Int64.min_int

(* ---------- bundles ---------- *)

let format_tag = "semimatch.bundle/1"

let c_bundles = Metrics.counter "bundles.written"
let () = Prom.describe "bundles.written" "Diagnostic bundles written to disk."

(* Within-process uniqueness; the wall-clock stamp handles across-process. *)
let bundle_seq = Atomic.make 0

let sanitize_component name =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-' || c = '_'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "trigger" else s

let mkdir_p path =
  let rec make p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make path

let write_text path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let write_bundle ~dir ~trigger ?rule ?(detail = []) ?prom ?(extra = []) ~version () =
  try
    let now_mono = Span.now_ns () in
    let now_wall = Unix.gettimeofday () in
    let tm = Unix.gmtime now_wall in
    let seq = Atomic.fetch_and_add bundle_seq 1 in
    let name =
      Printf.sprintf "bundle-%04d%02d%02d-%02d%02d%02d-%03d-%s" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec seq
        (sanitize_component trigger)
    in
    let bundle = Filename.concat dir name in
    mkdir_p bundle;
    let since = since_ns () in
    let prom_text = match prom with Some p -> p | None -> Prom.render () in
    let snaps = snapshots () in
    let snap_lines =
      String.concat ""
        (List.map
           (fun s ->
             Json.to_string
               (Json.Obj
                  [
                    ("ts_ns", Json.Num (Int64.to_float s.snap_ts_ns));
                    ("prom", Json.Str s.snap_prom);
                  ])
             ^ "\n")
           snaps)
    in
    let files =
      [
        ("trace.json", Trace.render ~since_ns:since ());
        ("events.jsonl", Events.render_jsonl ~since_ns:since ());
        ("metrics.prom", prom_text);
        ("snapshots.jsonl", snap_lines);
      ]
      @ extra
    in
    List.iter (fun (fname, text) -> write_text (Filename.concat bundle fname) text) files;
    let manifest =
      Json.Obj
        ([
           ("format", Json.Str format_tag);
           ("trigger", Json.Str trigger);
         ]
        @ (match rule with None -> [] | Some r -> [ ("rule", Json.Str r) ])
        @ [
            ("detail", Json.Obj detail);
            ("written_unix_s", Json.Num now_wall);
            ("mono_ns", Json.Num (Int64.to_float now_mono));
            ( "window_s",
              match config () with None -> Json.Null | Some c -> Json.Num c.window_s );
            ("version", Json.Str version);
            ("snapshots", Json.Num (float_of_int (List.length snaps)));
            ( "files",
              Json.List
                (List.map
                   (fun (fname, text) ->
                     Json.Obj
                       [
                         ("name", Json.Str fname);
                         ("bytes", Json.Num (float_of_int (String.length text)));
                       ])
                   files) );
          ])
    in
    write_text (Filename.concat bundle "manifest.json") (Json.to_string manifest);
    Metrics.incr c_bundles;
    Events.emit ~level:Events.Warn "bundle.written"
      [ Events.str "dir" bundle; Events.str "trigger" trigger ];
    Ok bundle
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s: %s %s" (Unix.error_message e) fn arg)
