(** Bipartite hypergraphs H = (V1 ∪ V2, N) for MULTIPROC (paper Sec. II-B).

    Every hyperedge contains exactly one task vertex (V1) and a non-empty set
    of processor vertices (V2); it models one *configuration* of that task,
    with weight w_h: the execution time the task adds to {e each} processor
    of the configuration.  Hyperedges are stored canonically grouped by task,
    so the hyperedges of task [v] are the contiguous ids
    [task_off.(v) .. task_off.(v+1) − 1].

    The CSR arrays are never mutated after construction, so graphs may share
    them: {!with_weights} shares the structure arrays, and {!of_bipartite} /
    {!to_bipartite} share [task_off]/[h_adj]/[w] with the bipartite graph's
    [off]/[adj]/[w]. *)

type t = private {
  n1 : int;  (** number of tasks *)
  n2 : int;  (** number of processors *)
  task_off : int array;  (** length [n1+1]; hyperedge id ranges per task *)
  h_off : int array;  (** length [num_hyperedges+1]; pin ranges per hyperedge *)
  h_adj : int array;  (** processor pins, grouped by hyperedge *)
  w : float array;  (** hyperedge weights *)
}

val create : n1:int -> n2:int -> hyperedges:(int * int array * float) list -> t
(** [create ~n1 ~n2 ~hyperedges] from [(task, processors, weight)] triples:
    a list adapter over the {!builder}.  Validates: endpoints in range,
    weights positive, processor sets non-empty and duplicate-free.  Raises
    [Invalid_argument] otherwise.  Hyperedges are re-grouped by task;
    relative order within a task is preserved (heuristic tie-breaking is
    sensitive to it). *)

(** {1 Sized builder}

    Every graph is built through one of these: the text parser, the
    edge-stream loader, the daemon's sessions and the surviving-machine
    sub-instances all append hyperedges here instead of building lists. *)

type builder

val builder : n1:int -> n2:int -> hyperedges:int -> pins:int -> builder
(** Room for [hyperedges] hyperedges holding [pins] pins in all.  With
    exact counts, {!build} allocates nothing but the final CSR arrays; more
    input grows the arrays and less is trimmed.  Raises [Invalid_argument]
    on a negative [n1] or [n2]. *)

val add_pin : builder -> int -> unit
(** Append a processor to the hyperedge under construction. *)

val end_hyperedge : builder -> task:int -> weight:float -> unit
(** Close the hyperedge under construction (the pins added since the
    previous call) as a configuration of [task] with weight [weight]. *)

val add : builder -> task:int -> procs:int array -> weight:float -> unit
(** [add_pin] every processor of [procs], then [end_hyperedge]. *)

val add_canonical_lines : builder -> string -> int -> int
(** [add_canonical_lines b text pos] appends the hyperedges of the
    canonical [.hg] lines of [text] from byte [pos], the first byte of a
    line, and returns the first byte of the first line it refuses, or
    [String.length text + 1] when it takes a last line that has no
    ['\n'].  Each line taken is one hyperedge.

    A canonical line is [h], then fields of plain digits, each after
    exactly one space, ending at ['\n'] or at the end of [text]: the task
    (at most 18 digits), the weight (at most 15) and the pins (at most 18
    each).  A line is taken only when {!end_hyperedge} would accept its
    hyperedge in place: the task is below [n1] and, while the input is
    grouped by task, not below the previous hyperedge's; the weight is at
    least 1; it has 1 to 32 pins, each below [n2], none repeated; and
    every array has room.  Any other line is the caller's to read.

    One C loop ([hg_stubs.c]) writes the builder's state in place: the pin
    offsets, the pins, the weights, the per-task counts and, once the input
    has left task order, the per-hyperedge tasks, then the hyperedge and
    pin counts and the last task.  The loop allocates nothing (a call
    allocates one three-slot array) and takes no line once a hyperedge has
    failed validation.  Raises [Invalid_argument] when [pos] is outside
    [0, String.length text]. *)

val build : builder -> t
(** The graph, grouped by task as {!create} groups it (no work when the
    input is already task-grouped).  Hyperedges are validated in input
    order with {!create}'s checks; the first failure is raised here, as
    [Invalid_argument], not when the hyperedge was added.  The builder is
    spent: any further use raises [Invalid_argument]. *)

val num_hyperedges : t -> int
val num_pins : t -> int
(** Σ_h |h ∩ V2| — the size measure reported in Table I. *)

val task_degree : t -> int -> int
(** Number of configurations of a task (d_v in the paper). *)

val max_task_degree : t -> int

val iter_task_hyperedges : t -> int -> (int -> unit) -> unit
(** [iter_task_hyperedges h v f] calls [f] on each hyperedge id of task
    [v]. *)

val h_task : t -> int -> int
(** Owning task of a hyperedge. *)

val h_size : t -> int -> int
(** |h ∩ V2|. *)

val h_weight : t -> int -> float

val iter_h_procs : t -> int -> (int -> unit) -> unit
(** Iterate the processor pins of a hyperedge. *)

val h_procs : t -> int -> int array
(** Fresh array of the processor pins of a hyperedge. *)

val with_weights : t -> float array -> t
(** Same structure, new weights (length-checked, positive). *)

val has_isolated_task : t -> bool
(** True when some task has no configuration (infeasible instance). *)

val of_bipartite : Bipartite.Graph.t -> t
(** Degenerate embedding: each bipartite edge becomes a singleton-processor
    hyperedge, so SINGLEPROC is literally the special case the paper
    describes.  Hypergraph heuristics run unchanged on the result.  O(m):
    only [h_off] is new. *)

val to_bipartite : t -> Bipartite.Graph.t option
(** Inverse of {!of_bipartite}: [Some g] iff every hyperedge is a singleton,
    each becoming one bipartite edge of the same weight.  Contract: edge [e]
    of the result corresponds to hyperedge [e] (both CSRs group stably by
    task, one entry per hyperedge), so a {e bipartite} edge choice is
    directly a {e hyperedge} choice.  [None] on any multi-processor
    configuration.  O(n1 + m) validation; no array is copied. *)

val min_max_h_size : t -> int * int
(** Smallest and largest configuration sizes (used by the Related weight
    scheme).  Raises [Invalid_argument] on hypergraphs without
    hyperedges. *)

val pp : Format.formatter -> t -> unit
