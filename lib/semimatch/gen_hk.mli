(** Generalized Hopcroft–Karp for optimal semi-matchings (Katrenič &
    Semanišin, arXiv:1103.1091).

    Starting from a greedy semi-matching, each phase runs one layered BFS
    from {e every} maximum-load machine and then augments along a maximal
    set of vertex-disjoint {e shortest cost-reducing paths} — alternating
    paths from a machine of load L to a machine of load at most L−2, whose
    flip moves one task per hop, lowering the source by one unit and raising
    the terminal by one with every load in between unchanged.  When no
    cost-reducing path leaves the region reachable from the maximum level,
    that region is provably settled (its loads are two adjacent values and
    its tasks' edges stay inside it) and is frozen out of later phases.

    The result admits no cost-reducing path at all, which by Harvey et al.'s
    characterization makes it an {e optimal} semi-matching: it simultaneously
    minimizes every symmetric convex cost of the load vector — the makespan,
    the total flow time Σ l(l+1)/2, and the lexicographic order of the
    sorted load vector.  This is strictly stronger than the
    makespan-optimality certified by {!Exact_unit.solve}'s binary search. *)

type solution = {
  assignment : Bip_assignment.t;
  makespan : int;
  loads : int array;  (** integer per-machine loads of [assignment] *)
  total_flow_time : int;  (** Σ_u l(u)·(l(u)+1)/2, minimal over all schedules *)
  phases : int;  (** layered BFS rounds, including freeze rounds *)
}

val solve : Bipartite.Graph.t -> solution
(** Requires unit weights and no isolated task; raises [Invalid_argument]
    otherwise.  Deterministic: identical input bytes give identical
    assignments, independent of domains or timing. *)
