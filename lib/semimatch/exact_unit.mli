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

    {!exact_engine_guarantee} names the level each engine certifies.
    Production code runs one engine, {!solve} (bs-hk, {!default_engine});
    the rest of the catalogue serves the CLI's [exact --engine] and
    [profile], the benches and the differential tests. *)

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
    which is available.  Per solve on the repository benchmark's
    [sp-exact] grid (12 paper-size rows, release build, 2-core x86 VM),
    Hopcroft–Karp takes 0.66–2.6 ms (mean 1.5) and push-relabel
    0.93–2.9 ms (mean 1.7): Hopcroft–Karp is faster on the six HiLo rows,
    push-relabel on four of the six FewgManyg rows.  Push-relabel also has
    a pathology: at an infeasible deadline, the tasks that cannot be
    matched climb toward the height limit 2(n1 + n2) + 5 one relabel at a
    time.  On FG-20-4 with
    d = 2 (generator seed 1002) its matching at deadline 5 makes 16.9 M
    steals, where Hopcroft–Karp's scans 31 k vertices.  The result is
    [Makespan_optimal] only. *)

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
    the CLI, the benches and the tests can run and compare them. *)

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

val default_engine : exact_engine
(** [Binary_search Hopcroft_karp] (bs-hk): what {!solve} runs by default,
    and the one exact engine that production code runs. *)

val exact_engine_name : exact_engine -> string
(** "bs-dfs", "bs-hk", "bs-pr", "harvey", "gen-hk", "dnc". *)

val exact_engine_guarantee : exact_engine -> guarantee
(** The level every solution of this engine certifies. *)

val solve_with : ?strategy:strategy -> exact:exact_engine -> Bipartite.Graph.t -> solution
(** Run one engine.  [strategy] applies to [Binary_search] only.  All
    engines return the same optimal makespan; assignments (and therefore
    load vectors) may differ within each engine's
    {!exact_engine_guarantee}. *)
