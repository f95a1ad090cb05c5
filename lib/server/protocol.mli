(** Wire protocol of the scheduler service: newline-delimited JSON.

    Each request is one line holding a JSON object with an ["op"] field and
    op-specific arguments; each reply is one line holding a JSON object
    with ["ok"] (and the request's ["id"] echoed verbatim when present, so
    scripted clients can match replies to requests).  Frames are capped at
    {!default_max_frame} bytes before any parsing happens, so a hostile
    length can never allocate unboundedly.

    Ops: [ping], [load], [add_task], [remove_task], [kill_proc],
    [resolve], [solve], [stats], [metrics], [sessions], [snapshot],
    [restore], [health], [dump], [checkpoint], [shutdown], plus the
    chunked edge-stream ingest [stream_begin] / [stream_chunk] /
    [stream_end] — see the README "Scheduler service" section for a
    transcript.  Any request may carry an ["idem"] idempotency id (see
    {!parsed}).

    Introspection ops come in two tiers.  [stats] always answers with the
    engine's own basics — ["uptime_s"], ["version"], ["requests"] posted /
    ["served"], ["sessions"], ["pending"] — because the engine maintains
    them itself, independent of the [Obs] master switch; its ["counters"]
    object carries the telemetry counters and is empty when [Obs] is
    disabled.  [metrics] returns a full Prometheus text exposition in an
    ["exposition"] string field (counters, latency histograms, span totals
    from [Obs], plus live gauges: resident sessions, queue depth,
    per-session task/proc/makespan) — the machine endpoint behind
    [semimatch client --metrics].

    [health] is the probe tier: always-on, answered entirely from memory
    (status ["ready"]/["degraded"]/["stuck"], watchdog and recorder
    state), cheap enough for a tight readiness loop.  [dump] forces a
    diagnostic bundle to the daemon's [--bundle-dir] and replies with its
    path. *)

type config = { procs : int array; weight : float }
(** One candidate configuration of a task, as in {!Hyper.Graph}. *)

type request =
  | Ping
  | Load of { session : string; source : [ `Inline of string | `Path of string ] }
  | Add_task of { session : string; configs : config list }
  | Remove_task of { session : string; task : int }
  | Kill_proc of { session : string; proc : int }
  | Resolve of { session : string; budget_ms : float }
  | Solve of { session : string }
  | Stats
  | Metrics
  | Sessions
  | Snapshot of { session : string }
  | Restore of { session : string; state : Obs.Json.t }
  | Health  (** cheap liveness/readiness: always answered from memory *)
  | Dump of { session : string option }
      (** force a diagnostic bundle; [session] picks the instance to
          embed (default: the only resident session, if unambiguous) *)
  | Checkpoint
      (** force an immediate checkpoint to the daemon's [--persist-dir];
          error when no persist dir is configured *)
  | Shutdown
  | Stream_begin of { session : string; n1 : int; n2 : int }
      (** open a chunked edge-stream upload: the daemon spools the edges to
          a binary stream file ({!Hyper.Stream_io}) on disk, never in RAM *)
  | Stream_chunk of { session : string; edges : (int * config) list }
      (** append one batch of [(task, config)] edges to the spool; chunk
          size is bounded by the frame cap, backpressure by the engine's
          bounded queue ([busy] replies) *)
  | Stream_end of { session : string; threshold_mb : int option; solver : string option }
      (** seal the spool and solve it through the ingest tier: instances
          whose CSR estimate fits [threshold_mb] (default 64) are
          materialized into a resident session (reply tier [incore-*]);
          larger ones are solved by the bounded-memory streaming solvers
          ([solver] = ["auto"|"one-pass"|"few-pass"], reply tier
          [stream-*]) without creating a session *)

type parsed = { req : request; id : Obs.Json.t option; idem : string option }
(** [idem] is the optional client-supplied {e idempotency id} (request
    field ["idem"], a non-empty string).  A state-mutating request that
    succeeds is remembered under its idem key — in memory and, with a
    persist dir, in the write-ahead journal — and a later request carrying
    the same key is answered with the {e cached reply verbatim} instead of
    being applied again.  This is what makes client retry-after-reconnect
    safe: a mutation whose reply was lost to a crash or connection drop can
    be resent without being double-applied, even across a daemon restart.
    Keys should be unique per logical mutation (e.g. [clientid-seqno]); the
    cache is bounded (a few thousand entries, FIFO eviction), sized for
    retry windows, not for permanent exactly-once semantics. *)

type error_code =
  | Protocol  (** malformed JSON, missing/unknown op, wrong field type *)
  | Bad_request  (** well-formed but semantically invalid (range, parse...) *)
  | Unknown_session
  | Busy  (** admission control: the pending-request queue is full *)
  | Too_large  (** frame exceeds the size cap *)
  | Internal

val code_name : error_code -> string

val default_max_frame : int
(** 1 MiB. *)

val parse :
  ?max_frame:int -> string -> (parsed, error_code * string * Obs.Json.t option) result
(** Total over arbitrary bytes: never raises.  The error carries the
    request id when one could be recovered, so even a rejected request gets
    a matched reply. *)

val ok_reply : ?id:Obs.Json.t -> op:string -> (string * Obs.Json.t) list -> string
(** One reply line (no trailing newline): [{"id":...,"ok":true,"op":...,
    ...fields}]. *)

val error_reply : ?id:Obs.Json.t -> code:error_code -> string -> string
(** [{"id":...,"ok":false,"error":CODE,"message":MSG}]. *)

type reply = {
  json : Obs.Json.t;  (** the whole reply object *)
  ok : bool;  (** ["ok":true] *)
  code : string option;  (** an error reply's ["error"], a {!code_name} *)
  message : string;  (** ["message"], or the reply line itself when it has none *)
}

val decode_reply : string -> (reply, string) result
(** Decode one reply line, the inverse of {!ok_reply} and {!error_reply}
    for every client.  [Error] carries the JSON parser's message. *)
