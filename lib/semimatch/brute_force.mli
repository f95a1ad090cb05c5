(** Exhaustive optimal solvers for tiny instances.

    MULTIPROC is NP-complete (Theorem 1), so no polynomial exact algorithm is
    expected; this branch-and-bound explores all configuration choices,
    pruning with the current bottleneck and with the paper's per-task
    cheapest-work bound.  It exists to ground-truth the heuristics, the
    lower bound and the X3C reduction in tests — instance sizes beyond a few
    dozen configurations are out of scope. *)

val multiproc : ?limit:int -> Hyper.Graph.t -> float * Hyp_assignment.t
(** [multiproc h] is an optimal makespan with a witness schedule; the
    makespan is the witness's own ({!Hyp_assignment.makespan}).  Raises
    [Invalid_argument] when the instance is infeasible or the search space
    Π d_v exceeds [limit] (default 10^7) branches. *)

val singleproc : ?limit:int -> Bipartite.Graph.t -> float * Bip_assignment.t
(** Optimal weighted SINGLEPROC via the hypergraph embedding. *)
