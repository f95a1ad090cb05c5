(** Binary min-heap over a fixed universe of integer keys [0 .. n-1] with
    float priorities and O(log n) [decrease]/[update].

    Used by greedy heuristics to extract the least-loaded processor and by
    the local-search refinement to track bottleneck processors.  Each key is
    present at most once; positions are tracked so priority updates do not
    require a search. *)

type t

val create : int -> t
(** [create n] is an empty heap over keys [0 .. n-1]. *)

val length : t -> int
val mem : t -> int -> bool

val insert : t -> int -> float -> unit
(** [insert t key prio] adds [key].  Raises [Invalid_argument] if [key] is
    already present or out of range. *)

val update : t -> int -> float -> unit
(** [update t key prio] changes the priority of a present [key] (up or
    down). *)

val min : t -> (int * float) option
(** Smallest-priority binding without removing it. *)

val pop_min : t -> (int * float) option
(** Remove and return the smallest-priority binding. *)
