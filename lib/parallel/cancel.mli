(** Cooperative cancellation tokens, shared across domains.

    A token is a single atomic flag, optionally armed with a monotonic-clock
    deadline.  Long-running work polls {!is_cancelled} at convenient
    points; [Semimatch.Portfolio] skips its unstarted solvers and stops its
    annealers once its timeout token has tripped. *)

type t

val create : ?timeout_s:float -> unit -> t
(** Fresh token.  [timeout_s] arms a deadline [timeout_s] seconds from now
    on the monotonic clock ({!Obs.Span.now_ns}): once it passes, the token
    reads as cancelled without anyone calling {!cancel}.  A deadline past
    the clock's range ({!Obs.Span.deadline_after}: [infinity] or about
    9.2e9 s and more) arms none.  A [timeout_s] that is not positive ([0.],
    negative, [nan]) has already expired: the token starts cancelled. *)

val never : t
(** A shared token that never trips ({!cancel} on it is ignored).  Useful as
    a default for code paths that take a token unconditionally. *)

val cancel : t -> unit
(** Trip the flag (idempotent, domain-safe). *)

val is_cancelled : t -> bool
(** True once {!cancel} was called or the deadline passed. *)
