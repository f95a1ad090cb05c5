(** The exact semi-matching algorithm of Harvey, Ladner, Lovász and Tamir
    ("Semi-matchings for bipartite graphs and load balancing", J. Algorithms
    59(1), 2006) — the algorithm the paper cites as reference [14] and
    positions its own Sec. IV-A method against.

    Tasks are inserted one at a time; each insertion searches the alternating
    structure (task→any allowed machine, machine→any task currently assigned
    to it) for the reachable machine whose load after insertion is smallest,
    then augments along that path, relocating the displaced tasks.  The
    result is an {e optimal} semi-matching: it simultaneously minimizes every
    symmetric-convex cost of the load vector — in particular both the
    makespan and the total flow time Σ l(l+1)/2.

    Complexity O(|V1|·|E|), matching Harvey et al.'s ASM2 bound.  Works on
    unit-weight bipartite graphs (SINGLEPROC-UNIT); [experiments_main
    ablations] times it against the repeated-matching algorithm of
    {!Exact_unit}. *)

type solution = {
  assignment : Bip_assignment.t;
  makespan : int;
  total_flow_time : int;  (** Σ_u l(u)·(l(u)+1)/2, Harvey et al.'s objective *)
}

val solve : Bipartite.Graph.t -> solution
(** Requires unit weights and no isolated task; raises [Invalid_argument]
    otherwise. *)

val flow_time : int array -> int
(** Σ l(l+1)/2 of a load vector: the [total_flow_time] of this module,
    {!Gen_hk} and {!Divide_conquer}. *)
