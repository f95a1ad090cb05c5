(** Divide-and-conquer optimal semi-matching in the style of
    Fakcharoenphol–Laekhanukit–Nanongkai (arXiv:1004.3363).

    The recursion keeps an interval [lo, hi] of candidate load levels and
    splits on the median m: a maximum matching under per-machine capacity m
    either covers every task — the whole sub-instance fits below m — or its
    Hall violator (everything alternately reachable from the unmatched
    tasks) isolates an overloaded half whose tasks have no edges elsewhere.
    The two halves are solved independently on disjoint machine sets, each
    with a halved interval, and no useful edge crosses the cut.  Two-level
    base cases are a single capacitated matching.

    Stitching runs the classical cost-reducing-path elimination over the
    combined schedule — flip shortest alternating paths from a maximum-load
    machine to one at least two units lighter until none remains — so the
    final schedule admits no cost-reducing path and is an optimal
    semi-matching in the strong sense of {!Gen_hk}: minimal makespan, total
    flow time and lexicographic load vector simultaneously. *)

type solution = {
  assignment : Bip_assignment.t;
  makespan : int;
  loads : int array;  (** integer per-machine loads of [assignment] *)
  total_flow_time : int;  (** minimal over all schedules *)
  matchings : int;  (** capacitated matching computations performed *)
}

val solve : Bipartite.Graph.t -> solution
(** Requires unit weights and no isolated task; raises [Invalid_argument]
    otherwise.  Deterministic: identical input bytes give identical
    assignments, independent of domains or timing. *)
