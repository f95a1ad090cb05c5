(** A multicore solver portfolio for MULTIPROC.

    The heuristics in this library have incomparable strengths: the greedies
    are fast but myopic, local search fixes single-task mistakes, annealing
    escapes local optima given budget.  The portfolio runs a selection of
    them {e in parallel} as one {!Parpool.Pool} batch and keeps the best
    schedule, sharing the incumbent makespan through an atomic so late
    starters can be {e cut off} as soon as some solver already matched the
    instance's lower bound (below which no schedule exists).

    Determinism: every solver is individually deterministic, and the set of
    solvers is fixed, so the best {e makespan} returned is independent of
    [jobs], scheduling, and timing.  With [cutoff:true] (the default) a
    solver may be skipped, but only once the incumbent equals the lower
    bound — i.e. only when the skipped solver could not have improved the
    value anyway; the reported {e winner} can then differ between runs (any
    solver attaining the optimum may finish first).  With [cutoff:false]
    every solver always runs and the winner is deterministic too: the
    earliest solver in list order attaining the best makespan. *)

type solver =
  | Greedy of Greedy_hyper.algorithm
  | Refined of Greedy_hyper.algorithm
      (** greedy start + {!Local_search.refine} *)
  | Annealed of int  (** {!Annealing.solve} seeded with this integer *)

val solver_name : solver -> string
(** E.g. "SGH", "EVG+ls", "anneal@7". *)

val default_solvers : solver list
(** The four greedy heuristics, local-search-refined EVG, and one annealing
    run (seed 1) — a spread of cheap and thorough. *)

type outcome = {
  o_solver : solver;
  o_makespan : float option;  (** [None]: skipped by cutoff or timeout *)
  o_time_s : float;
}

type result = {
  best_makespan : float;
  assignment : Hyp_assignment.t;
  winner : solver;
  lower_bound : float;  (** {!Lower_bound.multiproc_refined} *)
  outcomes : outcome list;  (** one per solver, in solver-list order *)
}

val solve : ?jobs:int -> ?cutoff:bool -> ?timeout_s:float -> Hyper.Graph.t -> result
(** [solve h] runs {!default_solvers} and returns the best schedule found.
    The solvers run as one {!Parpool.Pool.run} batch on at most [jobs]
    domains (default 1: fully sequential and deterministic).  [timeout_s]
    bounds the wall clock: running annealers stop early at their next poll
    and unstarted solvers are skipped — at least the first solver always
    completes, so a result is always returned.  Raises [Invalid_argument]
    on infeasible instances. *)

val solve_exact_unit :
  ?jobs:int -> Bipartite.Graph.t -> Exact_unit.solution * Exact_unit.exact_engine
(** [solve_exact_unit g] is [(Exact_unit.solve g, Exact_unit.default_engine)]:
    bs-hk's solution, named.  [jobs] is ignored: one engine has nothing to
    run in parallel.  The argument stays only because the repository
    benchmark's stream workload ([perfbench/wl_stream.ml]) passes
    [~jobs:1]; new code calls {!Exact_unit.solve}. *)
