(** The transport-independent core of the scheduler service: a session
    registry, a bounded pending-request queue (admission control), and the
    request handlers.

    Transports ({!Daemon} over sockets, {!Loopback} in-process) feed raw
    request lines through {!post} with a per-request reply callback and
    call {!drain} to process everything queued.  When the queue is full,
    {!post} replies [busy] immediately instead of buffering — backpressure
    the client can see.  {!drain} coalesces consecutive [add_task]
    requests for the same session into one {!Session.add_tasks} call, one
    {!Semimatch.Repair.place} pass over just the new tasks (each request
    still gets its own reply, tagged with the batch size); a
    request whose ["idem"] id is already in the batch ends it and is
    answered from the idempotency cache instead.

    One internal step, [apply], runs either a single request or such a
    batch and returns the replies plus what the journal must record.  Both
    {!drain} (live requests) and {!recover} (journal replay) change engine
    state only through it.

    Every request runs under an [Obs.Span] named after its op and emits a
    ["server.request"] event, so traces and the event log show the serve
    path like any other subsystem.  On top of the spans, the engine
    maintains live request telemetry in [Obs.Metrics]: phase histograms in
    microseconds ([server.phase.parse_us] at admission,
    [server.phase.queue_wait_us], [server.phase.solve_us],
    [server.phase.reply_us] at drain) and per-op end-to-end latency
    histograms ([server.latency.<op>_us]).  Requests slower than a
    configurable threshold are logged to [Obs.Events] as
    ["server.slow_request"], sampled (the first, then every nth).

    Plain request totals and the start time are engine state, not [Obs]
    state, so the [stats] basics (uptime, version, requests posted/served)
    are always live even with telemetry disabled; the [metrics] op renders
    the full {!Obs.Prom} exposition plus engine gauges.

    {2 Durability}

    With a {!Persist} handle, every state-mutating request that succeeds
    is appended to the write-ahead journal {e before} its reply is handed
    to the transport, and {!tick} writes periodic atomic checkpoints; a
    restart calls {!recover} with what {!Persist.open_} found, which
    applies each journal group as one step, exactly as it ran live.
    Requests carrying an ["idem"] id (see {!Protocol.parsed}) are
    deduplicated against a bounded reply cache that survives restarts via
    the journal.

    Replayed records count as recovery, not as traffic: [stats]
    [requests]/[served], the [server.requests] counter, the phase and
    latency histograms and the anomaly rules see live requests only, and
    [server.recovery.records] counts the replay.  Replayed steps still run
    under their [server.<op>] spans and emit ["server.request"] events. *)

type t

type recovery_info = {
  rec_records : int;  (** journal request records replayed *)
  rec_torn_bytes : int;  (** truncated torn-tail bytes *)
  rec_sessions : int;  (** sessions resident after recovery *)
  rec_checkpoint : string option;  (** checkpoint directory restored from *)
  rec_replay_us : float;
  rec_failures : int;
      (** checkpoint sessions that failed restore, journal records that
          failed to parse or apply, sessions that failed verification *)
}

val create :
  ?jobs:int ->
  ?max_pending:int ->
  ?max_frame:int ->
  ?version:string ->
  ?slow_ms:float ->
  ?anomaly:Obs.Anomaly.t ->
  ?bundle_dir:string ->
  ?before_solve:(string -> unit) ->
  ?persist:Persist.t ->
  ?checkpoint_secs:float ->
  unit ->
  t
(** [jobs] (default 1: deterministic) is passed to the resolve/solve
    portfolio; [max_pending] (default 64) bounds the queue; [max_frame]
    (default {!Protocol.default_max_frame}) caps request frames.
    [version] (default ["dev"]) is echoed in [stats] replies.  [slow_ms]
    (default 100, [<= 0] disables) is the slow-request log threshold; the
    log is sampled — the first slow request is logged, then every 10th.

    [anomaly] wires in trigger evaluation: request latencies, busy
    rejections, queue depth, resolve budgets and the watchdog bracket are
    fed to it, and any firing is written as a diagnostic bundle under
    [bundle_dir] via {!Obs.Recorder.write_bundle} (no [bundle_dir] — the
    firing is still counted and logged, just not bundled).  [before_solve]
    is a test-only fault-injection hook run with the raw request line
    inside the watchdog bracket, before the handler.

    [persist] wires in the durability layer (journal + checkpoints);
    [checkpoint_secs] (default 0: disabled) is the periodic checkpoint
    cadence driven from {!tick}.  The idempotency reply cache holds 4096
    entries (FIFO eviction). *)

val max_frame : t -> int
val shutting_down : t -> bool
(** Set by a [shutdown] request; the transport drains and exits. *)

val post : t -> reply:(string -> unit) -> string -> unit
(** Enqueue one request line.  [reply] is invoked exactly once per posted
    line — during a later {!drain}, or immediately with a [busy] error
    when the queue is full (malformed lines are queued too, so error
    replies keep their place in the reply order). *)

val drain : t -> unit
(** Process every queued request in arrival order, invoking the reply
    callbacks.  Requests posted by callbacks during the drain are
    processed too.  No-op on an empty queue. *)

val tick : t -> unit
(** Host-loop pulse between requests: take a due {!Obs.Recorder} snapshot
    (with this engine's gauges), run the periodic {!Obs.Anomaly.poll}
    (heap growth) bundling any firing, give the journal its interval-fsync
    chance, and write a checkpoint when the cadence is due.  The daemon
    calls this every select round. *)

val recover : t -> Persist.recovery -> recovery_info
(** Rebuild state from what {!Persist.open_} (or {!Persist.load}) found:
    checkpoint sessions are restored directly via {!Session.restore}, then
    each journal group is applied as one step — the step {!drain} uses,
    with no queue, no replies, no re-journaling and no frame cap (every
    record was admitted once already) — so an [add_task] batch keeps its
    boundary, and the group's cached idempotency replies are re-seeded.
    Every resulting session is checked with {!Session.verify}.  A
    checkpoint session that fails to restore, a journal record that fails
    to parse or apply, and a session that fails verification are each a
    Warn event counted in [rec_failures], never raised.  Call before
    serving traffic. *)

val close_persist : t -> unit
(** Graceful-shutdown hook: write a final checkpoint (best-effort) and
    close the journal.  No-op without a persist layer. *)

val resident : t -> (string * Session.t) list
(** Resident sessions sorted by id — deterministic order for snapshot
    comparison ([doctor], the chaos harness). *)

val bundles_written : t -> int
(** Diagnostic bundles written by this engine (triggered or manual). *)

val last_bundle : t -> string option
(** Directory of the most recent bundle. *)
