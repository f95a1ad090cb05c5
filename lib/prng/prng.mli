(** Deterministic pseudo-random number generation for reproducible
    experiments.

    The generator is xoshiro256** seeded through splitmix64, so a single
    integer seed expands to a full 256-bit state.  Every experiment in this
    repository threads an explicit [t] value; there is no global state, which
    keeps instance generation reproducible across runs and machines. *)

type t
(** Mutable generator state: the four 64-bit xoshiro words, unboxed, so
    that {!int}, {!bits53} and {!bool} allocate nothing, and neither does
    {!float} where it is inlined. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed] using
    splitmix64 state expansion.  Different seeds give independent streams. *)

val copy : t -> t
(** [copy t] is a generator with identical state evolving independently. *)

val split : t -> t
(** [split t] draws a fresh seed from [t] and creates a new independent
    generator from it.  Use to derive per-instance streams from a master
    stream without correlating them. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of xoshiro256**. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive and
    at most [2^62].  Uses rejection sampling, hence exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive.  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)] with 53-bit resolution. *)

val bits53 : t -> int
(** The top 53 bits of the next output: the draw [x] that {!float} scales,
    [float t bound = Float.of_int x *. 0x1p-53 *. bound].  Unlike a [float]
    result, an [int] one is never boxed, also where the call is not inlined
    (every call across modules in a build with [-opaque], such as dune's
    dev profile). *)

val bool : t -> bool
(** A fair coin flip. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] draws [k] distinct integers uniformly
    from [\[0, n)] and returns them in ascending order.  Requires
    [0 <= k <= n].  Uses Floyd's algorithm ([k] draws) over a balanced set:
    O(k log k) time, one allocation per insert.  Several callers keep this
    order (weighted SINGLEPROC edges, hardness triples, loadgen and test
    configurations), so their instances and golden digests depend on it
    being ascending. *)

val sample_with_replacement : t -> k:int -> n:int -> int array
(** [k] integers uniform in [\[0, n)], possibly repeating. *)
