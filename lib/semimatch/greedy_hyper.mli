(** The four greedy semi-matching heuristics for MULTIPROC (paper
    Sec. IV-D): the heart of this library.

    All visit tasks by non-decreasing number of configurations (stable
    counting sort) and break ties by first hyperedge in input order.

    - [Sorted_greedy_hyp] (SGH, Algorithm 4): realize the configuration whose
      processors end up with the smallest bottleneck load.
    - [Expected_greedy_hyp] (EGH, Algorithm 5): like SGH but on *expected*
      loads o(u) = Σ w_h/d_v over undecided options, collapsed as choices
      are made.
    - [Vector_greedy_hyp] (VGH): compare whole hypothetical load vectors,
      sorted descending, lexicographically — minimize the largest load, then
      the second largest, and so on.
    - [Expected_vector_greedy_hyp] (EVG): the vector comparison applied to
      expected loads, tentatively realizing each candidate and tentatively
      discarding its siblings.

    The vector heuristics come in two variants: [Naive] re-sorts the whole
    load vector per candidate (O(Σ d_v·|V2| log |V2|), what the paper
    benchmarked) and [Merged] compares only the changed values, the
    candidate's new loads merged with the incumbent's old ones and the
    other way round ({!Ds.Load_vector.compare_hypothetical}), independent
    of |V2| — the improvement Sec. IV-D3 asks for but left unimplemented.
    Both return identical assignments; the ablation bench measures the
    gap.

    Under [Merged] all candidates of task v are deltas over one processor
    array, v's neighbourhood N(v) (the distinct processors of its
    configurations): VGH's candidate h adds w_h on h's processors and 0 on
    the rest of N(v), EVG's also discards every option's expectation.  A
    candidate costs O(|N(v)|) to fill and to compare, plus O(k²) for the k
    processors on which it and the incumbent differ: the processors where
    both agree cancel in one pass, tied loads included.  On sparse
    instances, where |N(v)| is several times a configuration's size, VGH
    pays for the wider fill.

    The greedies are plain loops over the CSR arrays and add their probe
    counters once per run: [semimatch.greedy.candidates] is the number of
    hyperedges, [realized] the number of tasks and, for SGH and EGH,
    [pin_scans] the number of pins. *)

type algorithm =
  | Sorted_greedy_hyp
  | Expected_greedy_hyp
  | Vector_greedy_hyp
  | Expected_vector_greedy_hyp

type vector_variant = Naive | Merged

val all : algorithm list

val name : algorithm -> string
(** Full names as in the paper: "sorted-greedy-hyp", …. *)

val short_name : algorithm -> string
(** Table column labels: "SGH", "VGH", "EGH", "EVG". *)

val run : ?vector_variant:vector_variant -> algorithm -> Hyper.Graph.t -> Hyp_assignment.t
(** Raises [Invalid_argument] on instances with a configuration-less task.
    [vector_variant] (default [Merged]) only affects the two vector
    heuristics' running time, never their output. *)

val makespan : algorithm -> Hyper.Graph.t -> float
