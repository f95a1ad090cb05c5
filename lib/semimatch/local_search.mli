(** Lexicographic local-search refinement (an extension beyond the paper,
    motivated by its future-work section).

    Starting from any MULTIPROC assignment, repeatedly try to move a single
    task to one of its other configurations; a move is accepted when it makes
    the descending load vector lexicographically smaller (which in particular
    never increases the makespan).  Each accepted move strictly decreases a
    finite well-ordering, so the search terminates at a 1-move-optimal
    schedule. *)

val refine :
  ?max_passes:int -> Hyper.Graph.t -> Hyp_assignment.t -> Hyp_assignment.t * int
(** [refine h a] returns the improved assignment and the number of accepted
    moves.  [max_passes] (default 50) caps full sweeps over the tasks. *)

val refine_bipartite : Bipartite.Graph.t -> Bip_assignment.t -> Bip_assignment.t * int
(** Same idea on SINGLEPROC assignments, via the hypergraph embedding of the
    bipartite instance, with the default [max_passes]. *)
