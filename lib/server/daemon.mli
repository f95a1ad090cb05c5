(** The long-running scheduler daemon: a single-threaded accept loop over
    a Unix-domain socket (plus an optional loopback TCP listener) speaking
    the newline-delimited JSON protocol.

    One [Unix.select] loop owns everything: accepting connections, reading
    frames into per-connection buffers (oversized frames are rejected with
    [too_large] and skipped to the next newline in bounded memory), posting
    complete lines to the {!Engine} queue — which applies admission
    control — and draining it.  A [shutdown] request is graceful: queued
    requests are served, replies flushed, the event log written, sockets
    closed and the socket file unlinked. *)

type opts = {
  socket_path : string option;  (** Unix-domain socket to listen on *)
  tcp_port : int option;  (** loopback TCP port to also listen on *)
  jobs : int;  (** domains for resolve/solve portfolios *)
  max_pending : int;  (** admission-control queue bound *)
  max_frame : int;  (** request frame cap, bytes *)
  events_log : string option;  (** written as JSON lines on shutdown *)
  trace_out : string option;
      (** Chrome/Perfetto trace written on shutdown — request spans
          interleaved with the GC tracks of OCaml [Runtime_events], which
          the daemon polls every select round *)
  version : string;  (** echoed in [stats] replies *)
  slow_ms : float;  (** slow-request log threshold; [<= 0] disables *)
  bundle_dir : string option;
      (** where anomaly-triggered and [dump]-forced diagnostic bundles are
          written; [None] disables bundling (firings are still logged) *)
  record_secs : float;
      (** flight-recorder window; [<= 0] leaves the default ring sizes and
          takes no periodic snapshots *)
  triggers : Obs.Anomaly.rule list;
      (** anomaly trigger rules; [[]] with a [bundle_dir] uses
          {!Obs.Anomaly.default_rules} *)
  persist_dir : string option;
      (** durability root: write-ahead journal + atomic checkpoints; on
          startup the newest valid checkpoint and the journal suffix are
          recovered before serving.  [None] disables persistence *)
  fsync : Journal.policy;  (** journal fsync policy *)
  checkpoint_secs : float;  (** checkpoint cadence; [<= 0] only on shutdown *)
}

val run : opts -> unit
(** Serve until a [shutdown] request or a SIGTERM/SIGINT (both graceful:
    the current select round finishes, replies are flushed, a final
    checkpoint is written when persistence is on, logs land, the socket
    file is unlinked); raises [Invalid_argument] when no listener is
    configured and [Unix.Unix_error] when binding fails.  Enables
    telemetry ({!Obs.set_enabled}) so [stats] and the event log have
    content.

    With a [bundle_dir] and a [stall:MS] trigger, a background watchdog
    domain polls the progress heartbeat every 50ms and writes a partial
    bundle (trace slice, events tail, exposition, the offending request —
    no instance dump, since session state belongs to the engine thread)
    {e while} a solve is stuck; the engine's post-hoc check on the same
    cooldown adds at most one full bundle when the solve returns. *)
