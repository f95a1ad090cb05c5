(** Telemetry substrate: process-global counters and histograms, monotonic
    span timers with a bounded trace, and table/JSON-lines/CSV report sinks.

    Everything is off by default.  Probe points compile to one guarded
    in-place update; with {!is_enabled} false they allocate nothing and cost a
    load and a branch, so they can stay in release hot paths.

    The substrate is domain-safe: every domain records into its own shard
    (found through [Domain.DLS]), so probes stay zero-cost single-threaded
    and lock-free under parallelism — no atomics, no contention, no lost
    increments.  Shards are merged at report time ({!Metrics.fold_counters},
    {!Metrics.fold_histograms}, the sinks); merge after the parallel section
    joins (as the [Parpool] drivers do) and the sums are exact.  The
    historical single-domain restriction ("run profiling with jobs = 1") is
    lifted. *)

val set_enabled : bool -> unit
(** The master switch shared by every probe (default off). *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero all counters and histograms, clear the span trace, aggregates and
    event log.  Registered names survive (handles stay valid). *)

val with_recording : (unit -> 'a) -> 'a
(** [with_recording f] resets, enables, runs [f], and restores the previous
    enabled state (telemetry recorded by [f] is kept for inspection). *)

module Metrics : sig
  type counter

  val counter : string -> counter
  (** Interned by name: same name, same counter, process-wide.  Call once at
      module initialization, not per event. *)

  val incr : counter -> unit
  (** No-op unless {!is_enabled}.  Updates the calling domain's shard only:
      lock-free and contention-free from any number of domains. *)

  val add : counter -> int -> unit

  val value : counter -> int
  (** Sum over every domain's shard. *)

  val shard_values : counter -> int list
  (** The per-shard values behind {!value}, one per shard that
      {!shard_count} counts (a shard that never touched [c] reports 0), in
      no particular order.  [value c = List.fold_left (+) 0 (shard_values c)]
      when quiescent. *)

  val shard_count : unit -> int
  (** Number of shards held: one per domain that has recorded and not yet
      exited, plus one that holds everything exited domains recorded.  A
      domain's shard is folded into that one when the domain exits, so the
      helpers each fork-join batch spawns do not pile up. *)

  type histogram

  val histogram : string -> histogram
  (** Interned by name.  Log₂-bucketed: bucket 0 is [0,1), bucket [i ≥ 1] is
      [2^(i-1), 2^i); exact count/sum/min/max on the side. *)

  val observe : histogram -> float -> unit
  (** No-op unless {!is_enabled}. *)

  val count : histogram -> int
  val sum : histogram -> float

  val minimum : histogram -> float
  val maximum : histogram -> float
  (** Exact observed extremes; [nan] when empty. *)

  val quantile : histogram -> q:float -> float
  (** Rank-interpolated quantile from the buckets, clamped to the exact
      observed [min, max] range.  [nan] when empty; raises
      [Invalid_argument] for [q] outside [0,1]. *)

  type summary = {
    s_count : int;
    s_sum : float;
    s_min : float;
    s_max : float;
    s_mean : float;
    s_p50 : float;
    s_p90 : float;
    s_p95 : float;
    s_p99 : float;
  }

  val fold_counters : (string -> int -> 'a -> 'a) -> 'a -> 'a
  (** Name-sorted, registered counters (including zeros), merged over all
      shards. *)

  val fold_histograms : (string -> summary -> (float * int) list -> 'a -> 'a) -> 'a -> 'a
  (** Name-sorted, registered histograms, each merged over all shards once:
      the callback gets the summary and the cumulative buckets of that one
      merge, as (bucket upper bound, cumulative count) pairs through the
      highest non-empty bucket, the last count being [s_count] ([[]] when
      empty).  A count is always its merged bucket total, so the two agree
      even while other domains observe. *)

  type snapshot
  (** A copy of the {e calling domain's} shard at one instant. *)

  val local_snapshot : unit -> snapshot

  val diff_since : snapshot -> (string * int) list * (string * summary) list
  (** What the calling domain recorded since the snapshot was taken —
      exact regardless of what other domains did in between, which is how
      the CLI's parallel [profile] attributes metrics to solvers sharing a
      pool.  Returns (non-zero counter deltas, non-empty histogram deltas),
      name-sorted.  Histogram delta count/sum/buckets (hence quantiles) are
      exact; min/max are bucket-resolution approximations unless the
      snapshot was empty for that histogram. *)
end

module Span : sig
  val now_ns : unit -> int64
  (** Monotonic clock (CLOCK_MONOTONIC), immune to NTP adjustments.  Always
      live, independent of {!is_enabled}. *)

  val ns_to_s : int64 -> float

  val deadline_after : float -> int64 option
  (** [deadline_after s] is the {!now_ns} reading [s] seconds from now
      ([now] itself when [s <= 0]), or [None] — no deadline — when that
      reading lies past [Int64.max_int] ([infinity] and [nan] included). *)

  val time_s : (unit -> 'a) -> 'a * float
  (** [time_s f] runs [f] and additionally returns its monotonic wall time
      in seconds.  Always live — the experiment harness timing primitive. *)

  type t

  val enter : ?flow:int -> string -> t
  val exit : t -> unit
  (** Record a named span into the trace ring and per-name aggregates when
      {!is_enabled}; otherwise free.  Spans nest: depth is tracked.  [flow]
      (default 0 = none) tags the record with a cross-domain flow id so
      {!Obs.Trace} can draw an arrow from, say, a task's submission to its
      execution on another domain. *)

  val timed : ?flow:int -> string -> (unit -> 'a) -> 'a
  (** [timed name f] wraps [f] in {!enter}/{!exit} (exception-safe). *)

  val instant : ?flow:int -> string -> unit
  (** Record a zero-duration point-in-time marker (no aggregate update) —
      the flow-endpoint primitive.  No-op unless {!is_enabled}. *)

  val new_flows : int -> int
  (** [new_flows n] reserves [n] fresh process-unique nonzero flow ids and
      returns the first (use [first .. first + n - 1]); returns 0 when
      [n <= 0].  Ids never repeat within a process run. *)

  val with_depth_guard : (unit -> 'a) -> 'a
  (** Save the calling domain's nesting depth, run [f], restore it — so a
      span leaked inside [f] (entered but never exited) cannot skew the
      recorded depth of every later span on this domain.  {!Parpool.Pool}
      wraps each task it executes in this guard. *)

  type record = {
    r_name : string;
    start_ns : int64;
    stop_ns : int64;
    depth : int;
    dom : int;  (** id of the domain that recorded the span *)
    flow : int;  (** cross-domain flow id, 0 = none *)
  }

  val duration_s : record -> float

  val records : unit -> record list
  (** Oldest-first live contents of the trace ring (the most recent
      [capacity] completed spans). *)

  val recorded : unit -> int
  (** Total spans recorded since the last reset (may exceed capacity). *)

  val set_capacity : int -> unit
  (** Resize the trace ring (clears it).  Default 4096. *)

  type agg = { a_name : string; mutable a_count : int; mutable a_total_ns : int64 }

  val aggregates : unit -> agg list

  val reset : unit -> unit
  (** Clear the ring and the aggregates (all domains' records), but —
      by contract — only the {e calling} domain's nesting depth: depth is
      domain-local state that other domains may be mid-span on, so it
      cannot be zeroed remotely.  Long-lived worker domains must bound
      their own depth drift; the {!Parpool.Pool} does so by wrapping every
      task in {!with_depth_guard}, which makes a leaked span's skew end at
      the task boundary. *)
end

module Json : sig
  (** Minimal JSON used by the sinks and their round-trip tests — declared
      before {!Events} and {!Trace} so their signatures share this [t]. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val of_string : string -> t
  (** Raises [Failure] on malformed input. *)

  val member : string -> t -> t option
  val to_float : t -> float option
  val to_str : t -> string option
end

module Manifest : sig
  (** [manifest.json], the file a diagnostic bundle ({!Recorder}) or a
      daemon checkpoint writes last into its directory, so its presence
      marks the directory complete: a format tag, the writer's own fields
      and the byte size of every other file it wrote. *)

  val file : string
  (** ["manifest.json"]. *)

  val to_string : format:string -> (string * Json.t) list -> files:(string * string) list -> string
  (** [to_string ~format fields ~files] is the object [{"format":format,
      ...fields, "files":[{"name","bytes"}...]}], one entry per
      [(name, contents)] of [files]. *)

  val read : format:string -> string -> (Json.t * (string * int) list, string) result
  (** [read ~format dir] parses [dir]'s manifest and checks it: the format
      tag is [format], every [files] entry has a name and a byte count, and
      every listed file exists with that size.  Returns the manifest and
      its [(name, bytes)] list, or a one-line reason. *)
end

module Events : sig
  (** Leveled, domain-safe structured event log: bounded ring of
      timestamped key→value records emitted at coarse decision points
      (portfolio incumbent improvements, LB cutoffs, annealing temperature
      epochs, Hopcroft–Karp phases).  No-ops unless {!is_enabled}. *)

  type level = Debug | Info | Warn

  val set_level : level -> unit
  (** Minimum level recorded by {!emit} (default [Debug]: record
      everything; the ring is bounded, so filtering is usually better done
      at render time). *)

  type field = string * Json.t

  val str : string -> string -> field
  val num : string -> float -> field
  val int : string -> int -> field
  val bool : string -> bool -> field

  val emit : ?level:level -> string -> field list -> unit
  (** Record one event (monotonic timestamp, emitting domain id) when
      {!is_enabled} and [level >= set_level]; otherwise one load and a
      branch. *)

  type record = {
    e_ts_ns : int64;
    e_dom : int;
    e_level : level;
    e_name : string;
    e_fields : field list;
  }

  val records : unit -> record list
  (** Oldest-first live contents of the ring. *)

  val recorded : unit -> int
  val set_capacity : int -> unit
  (** Resize the ring (clears it).  Default 8192.  When the ring laps
      itself, each overwritten record increments the ["events.dropped"]
      counter, so silent truncation is visible in the exposition. *)

  val to_json : record -> Json.t

  val render_jsonl : ?min_level:level -> ?since_ns:int64 -> unit -> string
  (** [since_ns] keeps only records at or after that monotonic instant —
      the tail a diagnostic bundle wants. *)

  val render_text : unit -> string
  val write_jsonl : string -> unit
end

module Trace : sig
  (** Chrome/Perfetto trace-event JSON assembled from the {!Span} ring and
      the {!Events} log: one track per recording domain ("X" slices with
      thread metadata), flow arrows pairing records that share a flow id,
      counter tracks sampled at span boundaries, and the event log as
      thread-scoped instants.  Open the written file in
      {{:https://ui.perfetto.dev}ui.perfetto.dev} or [chrome://tracing]. *)

  val to_json : ?since_ns:int64 -> unit -> Json.t
  (** [Obj] with a ["traceEvents"] list — parseable by {!Obs.Json}.
      [since_ns] slices the export to records alive at or after that
      monotonic instant (spans qualify by their stop time, so a span
      straddling the cut is kept). *)

  val write_file : ?since_ns:int64 -> string -> unit
end

module Prom : sig
  (** Prometheus text exposition (text format 0.0.4) over the live
      {!Metrics} registry and {!Span} aggregates: counters become
      [<ns>_<name>_total], histograms become cumulative-[le] bucket series
      with [_sum]/[_count], span aggregates become
      [<ns>_span_<name>_seconds_total] / [_runs_total] counter pairs.
      Scraped by [semimatch client --metrics] through the daemon's
      [metrics] protocol command.  [<ns>] is ["semimatch"], and dots (and
      anything else outside [[a-zA-Z0-9_:]]) in a raw name become
      underscores: ["server.requests"] ↦ ["semimatch_server_requests"]. *)

  type gauge = string * (string * string) list * float
  (** (metric name, labels, value) — the name is sanitized and namespaced
      by {!render}; samples sharing a name are grouped under one family. *)

  val describe : string -> string -> unit
  (** [describe name help] registers the [# HELP] text for the family
      derived from the raw metric name ([name] before namespacing:
      ["server.requests"], ["span.portfolio"]...).  Families without a
      registration get a kind-derived default, so every family always
      carries a HELP line. *)

  val render : ?gauges:gauge list -> unit -> string
  (** The full exposition: every registered counter, histogram and span
      aggregate, plus the caller's gauges (live state the registry does not
      hold: resident sessions, queue depth...).  Each family is preceded by
      [# HELP] then [# TYPE]. *)

  val lint : string -> (unit, string) result
  (** Validate an exposition: every sample under a declared [# TYPE]
      family, each [# TYPE] preceded by a [# HELP] for the same family, no
      duplicate families, numeric values, and per histogram strictly
      increasing [le] bounds with non-decreasing cumulative counts ending
      at a [+Inf] bucket that agrees with [_count].  Returns the first
      violation. *)
end

module Runtime : sig
  (** OCaml 5 [Runtime_events] correlation: replay the runtime's own event
      ring (minor/major GC phases, domain lifecycle) into the {!Span} ring
      so GC pauses appear in the {!Trace} export as dedicated ["gc-ring-N"]
      tracks interleaved with application spans.

      [start] begins self-monitoring; a host loop calls [poll] periodically
      (the daemon does so every select round).  Replayed records only land
      in the ring while {!Obs.is_enabled} holds. *)

  val track_offset : int
  (** Span records with [dom >= track_offset] are runtime tracks:
      [dom = track_offset + ring id].  Far above any real domain id. *)

  val start : unit -> unit
  (** Enable [Runtime_events] for this process and open a self-monitoring
      cursor.  Idempotent. *)

  val started : unit -> bool

  val poll : unit -> int
  (** Drain pending runtime events into the span ring; returns the number
      of raw events read.  0 when not started. *)

  val stop : unit -> unit
  (** Final poll, then free the cursor.  Idempotent. *)
end

module Recorder : sig
  (** Flight recorder: keep recent telemetry resident in bounded rings and
      write the last [window_s] seconds of it out as a self-contained
      diagnostic bundle directory on demand.

      {!start} resizes the {!Span} and {!Events} rings to [span_capacity]
      and [event_capacity] records (16,384 each by default), whatever
      [window_s] is, and enables telemetry.  The window does not size the
      rings: it only cuts older records out of a bundle, so a busy process
      can lap a ring before the window ends.  The host loop calls {!tick}
      periodically (the daemon does so every select round) to take bounded
      periodic Prometheus snapshots.  {!write_bundle} assembles a bundle directory:
      [manifest.json] (written last — its presence marks a complete
      bundle), [trace.json] (Chrome/Perfetto slice of the window),
      [events.jsonl] (event tail), [metrics.prom] (exposition at the
      trigger), [snapshots.jsonl] (the periodic ring) and any
      caller-supplied extra files (the offending request, a [Hyper.Io]
      instance dump for replay). *)

  type config = {
    window_s : float;  (** how far back a bundle's trace and event tail reach *)
    span_capacity : int;
    event_capacity : int;
    snapshot_every_s : float;
    max_snapshots : int;
  }

  val default_config : config
  (** 30s window, 16384-record rings, a snapshot every 5s, 64 kept. *)

  val start : ?config:config -> unit -> unit
  (** Resize the rings (clearing them), enable telemetry, begin
      snapshotting.  Raises [Invalid_argument] on non-positive sizes. *)

  val started : unit -> bool
  val config : unit -> config option
  val stop : unit -> unit

  val tick : ?prom:(unit -> string) -> unit -> bool
  (** Take a periodic snapshot when one is due; returns whether one was.
      [prom] supplies the exposition (default {!Prom.render}; the engine
      passes its gauge-enriched rendering) and is only evaluated when a
      snapshot is actually taken. *)

  type snapshot = { snap_ts_ns : int64; snap_prom : string }

  val snapshots : unit -> snapshot list
  (** Oldest first. *)

  val format_tag : string
  (** ["semimatch.bundle/1"], the manifest ["format"] field. *)

  val write_bundle :
    dir:string ->
    trigger:string ->
    ?rule:string ->
    ?detail:(string * Json.t) list ->
    ?prom:string ->
    ?extra:(string * string) list ->
    version:string ->
    unit ->
    (string, string) result
  (** Write one bundle under [dir] (created as needed) into a fresh
      [bundle-<utc>-<seq>-<trigger>] subdirectory; returns its path.
      [rule]/[detail] land in the manifest, [prom] overrides the exposition
      text, [extra] is a list of [(filename, contents)] written alongside
      and listed in the manifest.  Any I/O failure is [Error]. *)
end

module Anomaly : sig
  (** Declarative anomaly triggers over the live telemetry.  The service
      feeds cheap observations; a rule that trips returns a {!firing}
      (subject to a per-rule-kind cooldown) which the caller turns into a
      {!Recorder.write_bundle}.

      Spec grammar, comma-separable ({!rules_of_string}):
      [latency:MS] / [latency:OP:MS], [overbudget:FACTOR], [queue:N],
      [busy:N@SECS], [heap:MB_PER_S@SECS], [stall:MS]. *)

  type rule =
    | Latency of { op : string option; ms : float }
        (** request end-to-end latency at or over [ms] (optionally only
            for one op) *)
    | Over_budget of { factor : float }
        (** a budgeted solve took [factor]× its budget or more *)
    | Queue_full of { pending : int }  (** pending queue at or over [pending] *)
    | Busy_burst of { count : int; window_s : float }
        (** [count] busy rejections within [window_s] seconds *)
    | Heap_growth of { mb_per_s : float; window_s : float }
        (** major-heap growth rate sustained over at least half of
            [window_s] *)
    | Stall of { ms : float }
        (** watchdog: no progress heartbeat for [ms] on an in-flight
            solve *)

  val rule_kind : rule -> string
  (** ["latency"], ["overbudget"], ["queue"], ["busy"], ["heap"],
      ["stall"] — the cooldown key and bundle trigger name. *)

  val rule_to_string : rule -> string
  (** Round-trips through {!rule_of_string}. *)

  val rule_of_string : string -> rule
  (** Raises [Failure] on a malformed spec. *)

  val rules_of_string : string -> rule list
  (** Comma-separated specs; empty segments are skipped. *)

  val default_rules : rule list
  (** [latency:1000, overbudget:4, busy:64@5, heap:512@10, stall:5000] —
      only clearly-pathological behaviour.  [queue] is capacity-dependent
      and therefore opt-in. *)

  type t

  val create : ?cooldown_s:float -> rule list -> t
  (** [cooldown_s] (default 5) is the minimum spacing between firings of
      the same rule kind — a stuck solve checked every 50ms must produce
      one bundle, not twenty. *)

  val rules : t -> rule list
  val firings : t -> int
  val last_firing : t -> (string * int64) option
  (** (rule spec, monotonic ns) of the most recent firing. *)

  val stall_ms : t -> float option
  (** Smallest [Stall] threshold, when one is configured. *)

  type firing = { f_rule : rule; f_ts_ns : int64; f_detail : (string * Json.t) list }
  (** Every firing also emits an ["anomaly.fired"] warn event. *)

  val observe_request : t -> op:string -> ms:float -> firing option
  val observe_solve : t -> op:string -> budget_ms:float -> elapsed_ms:float -> firing option
  val observe_queue : t -> pending:int -> firing option
  val observe_busy : t -> firing option

  val poll : ?heap_bytes:float -> t -> firing option
  (** Periodic heap-growth evaluation ([Gc.quick_stat] major-heap bytes;
      [heap_bytes] overrides the reading so tests can replay a synthetic
      growth curve). *)

  (** {2 Watchdog}

      Progress is a process-global monotonic heartbeat: every {!Span} exit
      and {!Events} emission stamps it (solver phases, portfolio
      incumbents, annealing epochs...), and the engine adds explicit
      {!beat}s at its own checkpoints.  {!solve_begin}/{!solve_end}
      bracket the in-flight request; {!check_stuck} is the cross-domain
      live check a background watchdog domain runs while the engine thread
      is stuck, {!solve_end} the same-thread post-hoc check (largest
      silent gap over the whole solve).  Both share cooldown state, so one
      stall yields one firing. *)

  val solve_begin : t -> op:string -> ?session:string -> request:string -> unit -> unit
  (** Capture the in-flight request (immutable strings, safe to bundle
      from the watchdog domain) and reset the gap tracking. *)

  val beat : t -> unit
  val solve_end : t -> firing option
  val check_stuck : t -> firing option

  type watchdog = {
    w_inflight : bool;
    w_op : string option;
    w_session : string option;
    w_silent_ms : float;  (** time since last observed progress (0 when idle) *)
    w_beats : int;
  }

  val watchdog : t -> watchdog
  (** The [health] op's watchdog status: in-memory reads only. *)
end

module Sink : sig
  type format = Table | Json | Csv

  val render : ?label:string -> format -> string
  (** Snapshot of every registered counter, histogram summary and span
      aggregate.  [Json] is JSON lines: one object per metric with ["type"],
      ["name"] and kind-specific fields ({!Obs.Json.of_string} parses each
      line back).  [label] tags every row — used for per-algorithm
      snapshots in one report. *)

  val emit : ?label:string -> ?oc:out_channel -> format -> unit
end

