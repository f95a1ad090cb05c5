(** Exact polynomial-time algorithms for SINGLEPROC-UNIT.

    Two distinct optimality levels live here, and they are {e not} the same
    thing:

    - {e Makespan optimality}: no schedule has a smaller maximum load.  This
      is what the paper's binary-search algorithm (Sec. IV-A) certifies: for
      a trial deadline D, a schedule of makespan ≤ D exists iff the graph
      G_D — D copies of every processor — admits a matching covering all
      tasks, and the smallest feasible D is searched for.  Loads below the
      maximum are whatever the matching happened to produce.
    - {e Load-vector optimality}: the schedule admits no cost-reducing path,
      which by Harvey et al.'s characterization minimizes {e every}
      symmetric convex cost simultaneously — the makespan, the total flow
      time Σ l(l+1)/2, and the lexicographic order of the sorted load
      vector.  The direct engines ({!Harvey}, {!Gen_hk}, {!Divide_conquer})
      certify this strictly stronger property.

    Every {!solution} records which level its engine guarantees, so callers
    racing engines know what the winner's bytes actually promise. *)

type strategy = Incremental | Bisection

val strategy_name : strategy -> string

type guarantee =
  | Makespan_optimal  (** minimal maximum load; other loads unconstrained *)
  | Load_vector_optimal
      (** no cost-reducing path: minimal makespan {e and} flow time {e and}
          lexicographic sorted load vector *)

val guarantee_name : guarantee -> string
(** ["makespan-optimal"] / ["load-vector-optimal"]. *)

type solution = {
  makespan : int;  (** the optimal makespan M_opt *)
  assignment : Bip_assignment.t;
  deadlines_tried : int;
      (** search/phase bookkeeping: matching computations for the deadline
          searches (one per deadline tried; the incremental search's Hall
          witnesses cost no matching) and {!Divide_conquer}, BFS phases
          for {!Gen_hk}, 0 for Harvey insertion *)
  guarantee : guarantee;  (** what the producing engine certifies *)
}

val solve :
  ?engine:Matching.engine -> ?strategy:strategy -> Bipartite.Graph.t -> solution
(** [solve g] computes a makespan-optimal SINGLEPROC-UNIT schedule by
    deadline search (paper Sec. IV-A).  Requires unit weights and no
    isolated task; raises [Invalid_argument] otherwise.

    The default [Incremental] strategy starts from the trivial lower bound
    ⌈n/p⌉.  When the matching at deadline d leaves tasks exposed, it does
    not try d + 1 next but the failed matching's Hall witness bound
    ({!hall_bound}, one O(n + m) alternating search), which never exceeds
    the optimum.  Every deadline tried is a from-scratch matching, the last
    one at the optimum, so the assignment is the one [feasible ~d:opt]
    returns.  On the paper's SINGLEPROC grid this tries 1–4 deadlines (at
    most 2 on HiLo rows) where stepping by one tried up to 39.  [Bisection] halves
    the interval between ⌈n/p⌉ and a feasible power-of-two probe.

    The default engine is [Hopcroft_karp].  The paper used push-relabel,
    which is available and often faster, but it has a pathology: at an
    infeasible deadline, the tasks that cannot be matched climb toward the
    height limit 2(n1 + n2) + 5 one relabel at a time.  On FG-20-4 with
    d = 2 (generator seed 1002) its matching at deadline 5 makes 16.9 M
    steals, where Hopcroft–Karp's scans 31 k vertices.  The result's
    [guarantee] is [Makespan_optimal] only. *)

val feasible : ?engine:Matching.engine -> Bipartite.Graph.t -> d:int -> Bip_assignment.t option
(** [feasible g ~d] is a schedule of makespan ≤ [d] if one exists — the
    single decision step, exposed for tests and for external search
    loops. *)

val hall_bound : Bipartite.Graph.t -> d:int -> int array -> int
(** [hall_bound g ~d mate1] is the lower bound on the optimal makespan
    that a maximum matching [mate1] of G_d (every processor takes up to
    [d] tasks; see {!Matching.result}) proves when it leaves k > 0 tasks
    exposed.  S is the set of tasks that alternating paths from the
    exposed tasks reach, N(S) its neighbourhood; every column of N(S) is
    full, so |S| = d·|N(S)| + k and the bound is d + ⌈k/|N(S)|⌉ > d.  S
    does not depend on which maximum matching is given.  O(n + m).
    Raises [Invalid_argument] if [mate1] covers every task, exceeds
    capacity [d], leaves a reached column with spare capacity (then it is
    not maximum and the bound would be unsound), or if the exposed tasks
    have no processor at all. *)

(** {2 The unified exact-engine catalogue}

    Everything that computes a provably optimal makespan, under one type so
    the portfolio, the CLI and the benches can race and compare them. *)

type exact_engine =
  | Binary_search of Matching.engine
      (** {!solve}: a deadline search over capacitated matchings; makespan
          only *)
  | Harvey_online
      (** {!Harvey.solve}: one augmentation per task, O(n·m); load-vector *)
  | Gen_hk
      (** {!Gen_hk.solve}: shortest cost-reducing path phases
          (Katrenič–Semanišin); load-vector *)
  | Divide_conquer
      (** {!Divide_conquer.solve}: FLN level recursion over capacitated
          matchings + elimination stitch; load-vector *)

val all_exact_engines : exact_engine list
(** The three binary searches then the three direct engines. *)

val exact_engine_name : exact_engine -> string
(** "bs-dfs", "bs-hk", "bs-pr", "harvey", "gen-hk", "dnc". *)

val exact_engine_guarantee : exact_engine -> guarantee

val solve_with : ?strategy:strategy -> exact:exact_engine -> Bipartite.Graph.t -> solution
(** Run one engine.  [strategy] applies to [Binary_search] only.  All
    engines return the same optimal makespan; assignments (and therefore
    load vectors) may differ within each engine's [guarantee]. *)
