(** Blocking client for the scheduler daemon: connect, send one request
    line, read one reply line.  Raises [Unix.Unix_error] on connection
    failures, [End_of_file] when the server hangs up mid-request, and
    {!Timeout} when a reply misses the caller's deadline — callers (the CLI
    [client] subcommand) turn each into an exit-2 diagnostic. *)

exception Timeout

type t

val connect_unix : string -> t
val connect_tcp : host:string -> port:int -> t
(** Both close their socket when the connect fails.  [connect_tcp] raises
    [Not_found] when [host] does not resolve. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected stream socket (tests, custom transports). *)

val fd : t -> Unix.file_descr
(** The connected socket, for callers that drive it directly
    ({!Loadgen.run}). *)

val request : ?timeout_s:float -> t -> string -> string
(** Send one line, read one reply line (the protocol answers every request
    exactly once, in order).  With [timeout_s], the read waits at most that
    many seconds past the write before raising {!Timeout}; without it, or
    when that deadline lies past the clock's range
    ({!Obs.Span.deadline_after}), the wait is unbounded. *)

val close : t -> unit

val retrying : ?attempts:int -> ?delay_s:float -> (unit -> t) -> t
(** Run [connect] up to [attempts] times (default 3), sleeping [delay_s]
    (default 0.1, doubling each retry) between attempts, retrying only the
    transient connection failures a daemon restart produces
    ([ECONNREFUSED], [ECONNRESET], [ENOENT], [EPIPE]).  The last failure —
    and any non-transient one — propagates as [Unix.Unix_error]. *)
