(** In-process loopback transport over {!Engine}: tests exercise the full
    protocol — parsing, admission control, batching, replies — without any
    socket or child-process management. *)

type t

val create : Engine.t -> t
(** Serve through [engine], built by {!Engine.create} with whatever anomaly
    triggers, bundle directory, persist layer or [before_solve] stall hook
    the test needs. *)

val engine : t -> Engine.t
val shutting_down : t -> bool

val post : t -> string -> unit
(** Enqueue a request line ({!Engine.post}); a [busy] rejection is
    delivered immediately into the reply buffer. *)

val drain : t -> string list
(** Process the queue and return all buffered replies in post order. *)

val request : t -> string -> string
(** [post] then [drain], expecting exactly one reply.  Raises
    [Invalid_argument] otherwise (e.g. when earlier posts are pending). *)
