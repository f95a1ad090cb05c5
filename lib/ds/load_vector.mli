(** Processor load vectors with lexicographic comparison of hypothetical
    updates — the engine behind the [vector-greedy-hyp] family (paper
    Sec. IV-D3).

    [compare_hypothetical] orders the descending load vectors that two
    candidate updates [a] and [b] {e would} produce, reading only the
    values they change.  For equal-size multisets, descending lexicographic
    order is decided at the largest threshold where the counts of values at
    or above it differ; loads neither candidate touches add the same count
    to both sides and cancel.  So the two hypothetical vectors compare as
    the two small multisets (new values of [a] ⊎ old values of [b]) and
    (new values of [b] ⊎ old values of [a]) do.  These are gathered into
    scratch buffers owned by [t] and compared by repeatedly taking out the
    largest value of each: O(|a| + |b|) per value until the first
    difference, at most O((|a| + |b|)²), whatever the number of processors,
    and no allocation.  The paper suggests avoiding the full re-sort but did
    not implement it: its experiments re-sort the whole vector, kept here as
    [hypothetical_sorted] for the naive variant, the ablation bench and the
    tests.  The scratch buffers make a [t] unsafe to share across
    domains. *)

type t

val create : int -> t
(** [create p] has all [p] loads at 0. *)

val load : t -> int -> float

val max_load : t -> float
(** The largest load, negative when every load is; 0 when there are no
    processors.  O(p). *)

val apply : t -> procs:int array -> w:float -> unit
(** Add [w] to the load of every processor in [procs] (a realized
    hyperedge).  O(|procs|). *)

val add : t -> proc:int -> w:float -> unit
(** Single-processor convenience wrapper over [apply]. *)

val sorted_desc : t -> float array
(** Copy of the current load values, descending. *)

(** {2 Deltas}

    A delta perturbs each of its processors by its own signed amount:
    [vector-greedy-hyp] adds one hyperedge's weight to its processors,
    [expected-vector-greedy-hyp] realizes one hyperedge and tentatively
    discards its siblings, local search moves one task.  Callers fill a
    delta in place and reuse it across candidates. *)

type delta = { procs : int array; amounts : float array; mutable len : int }
(** The update adding [amounts.(i)] to the load of [procs.(i)] for every
    [i < len].  Processors must be distinct within one delta. *)

val delta : t -> delta
(** An empty delta with room for every processor of [t]. *)

val apply_delta : t -> delta -> unit
(** Realize a delta.  Loads may legitimately decrease (discarding
    expectations); they are not required to stay non-negative.
    O(len). *)

val compare_hypothetical : t -> delta -> delta -> int
(** [compare_hypothetical t a b] orders the two hypothetical descending
    load vectors lexicographically; negative means realizing [a] leads to
    the lexicographically smaller (better) vector.  Neither delta is
    applied.  Every hypothetical load is computed as [load +. amount], so
    the result is exactly that of comparing the two [hypothetical_sorted]
    vectors.  Two deltas over one [procs] array with the same [len], as
    the vector greedies' candidates are, also cancel their common old values
    and every processor they both move to the same value.  Over different
    arrays an entry whose amount is 0.0 leaves its load unchanged on both
    sides and is dropped: a local-search move between two configurations
    that share processors at equal weights compares only the processors
    whose loads actually change. *)

val hypothetical_sorted : t -> delta -> float array
(** Fully materialized hypothetical vector (descending), for the naive
    variant and for tests.  O(p log p). *)
