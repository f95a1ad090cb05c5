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
    moves.  [max_passes] (default 50) caps full sweeps over the tasks.  [a]
    is not modified.

    Each pass visits the tasks in order and moves each at most once, to
    the configuration with the smallest resulting load vector (the first
    in input order on ties), if that vector is strictly smaller than
    staying.  A task's verdict depends only on its own choice and on the
    loads of its configurations' processors, so a task found with no
    strictly better move is skipped while none of those loads has changed
    since: the moves, their order and the pass count are exactly those of
    evaluating every task.  [semimatch.local_search.candidates] counts the
    moves evaluated and [semimatch.local_search.skipped] the tasks
    skipped. *)

val refine_bipartite : Bipartite.Graph.t -> Bip_assignment.t -> Bip_assignment.t * int
(** Same idea on SINGLEPROC assignments, via the hypergraph embedding of the
    bipartite instance, with the default [max_passes]. *)
