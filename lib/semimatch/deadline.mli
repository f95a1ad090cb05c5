(** Deadline-bounded graceful degradation for MULTIPROC solving.

    [solve ~budget_s h] spends a wall-clock budget on a cascade of solver
    tiers and always returns the best {e feasible} schedule found when the
    budget trips — never an exception, never an empty hand:

    - {b greedy}: {!Portfolio.solve} runs under the whole budget, and its
      first solver, sorted-greedy-hyp, runs to completion whatever the
      budget: it is the floor of the cascade.  A zero, negative or [nan]
      budget returns its schedule.  The tier is [greedy] when no other
      solver of the portfolio completed.
    - {b portfolio}: the remaining heuristics (greedies, local search,
      annealing) race under the budget; the tier is [portfolio] once any
      of them completed.
    - {b exact}: with budget still remaining, a SINGLEPROC-UNIT instance
      ({!Exact_unit.of_hypergraph}) is settled by {!Exact_unit.solve}, the
      deadline search over Hopcroft–Karp matchings (bs-hk) — polynomial,
      so no size bound is needed — adopted only when it strictly improves
      the incumbent, and a ["deadline.exact_engine"] event names the
      engine.  Otherwise, with a search space of at most [200_000]
      configurations (Π d_v), {!Brute_force.multiproc} settles the
      instance optimally, and its schedule is adopted on ties too.  The bound keeps brute force off any instance
      large enough that the portfolio's answer matters, so a generous
      budget reproduces [Portfolio.solve] byte-for-byte there.

    The result is {e degraded} when the budget cut solvers off before they
    could have mattered: some of the portfolio's solvers were skipped while
    the incumbent still sat above the lower bound.  Each tier that answers
    emits a ["deadline.tier"] event and every degradation a
    ["deadline.degraded"] warning, so traces show why quality dropped. *)

type tier = Tier_greedy | Tier_portfolio | Tier_exact

val tier_name : tier -> string
(** ["greedy"], ["portfolio"], ["exact"]. *)

type result = {
  assignment : Hyp_assignment.t;
  makespan : float;
  tier : tier;  (** the tier that produced [assignment] *)
  degraded : bool;
  lower_bound : float;  (** {!Lower_bound.multiproc_refined} *)
  elapsed_s : float;
}

val solve : ?jobs:int -> budget_s:float -> Hyper.Graph.t -> result
(** The lower bound and the incumbent are the portfolio's, so an
    undegraded run returns the portfolio's exact bytes unless the exact
    tier improves on them.  [jobs] is passed through to {!Portfolio.solve}.
    Raises [Invalid_argument] only on infeasible instances (a task with no
    configuration). *)

(** {2 Delta application}

    The scheduler service's periodic [resolve]: a budgeted from-scratch
    solve of the {e surviving} machine (dead processors masked, tasks with
    no surviving configuration excluded), mapped back to original
    hyperedge ids so the result can replace a live incumbent in place. *)

type delta = {
  d_choice : int array;
      (** chosen hyperedge id per task of the whole instance; [-1] for the
          tasks with no surviving configuration *)
  d_makespan : float;  (** of [d_choice]; [0.] when nothing survives *)
  d_lower_bound : float;
      (** {!Lower_bound.multiproc_refined} of the surviving machine; [0.]
          when nothing survives *)
  d_tier : tier;
  d_degraded : bool;
  d_elapsed_s : float;  (** including building the surviving machine *)
}

val solve_surviving :
  ?jobs:int ->
  dead:bool array ->
  budget_s:float ->
  Hyper.Graph.t ->
  delta
(** [solve_surviving ~dead ~budget_s h] runs {!solve} on the surviving
    machine ({!Repair.solve_survivors}).  With no surviving task the result
    is the empty schedule (makespan [0.], tier greedy, not degraded).
    Never raises on dead/infeasible structure — only on malformed arguments
    ([Invalid_argument]). *)
