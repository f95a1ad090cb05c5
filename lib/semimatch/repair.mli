(** Incremental semi-matching repair after processor failures.

    Given a schedule and a set of dead processors, only the {e affected}
    tasks — those whose chosen configuration touches a dead processor — are
    re-placed: greedy re-insertion onto the cheapest surviving configuration
    (fewest-options-first, the same order discipline as the greedies), then
    a warm-started local search restricted to the touched tasks.  Unaffected
    tasks keep their placement, which is the whole point: repair cost is
    measured in tasks moved, not in schedules recomputed.

    As a safety net, {!repair} also runs the from-scratch {!resolve} on the
    surviving machine and returns whichever is better, so an incremental
    repair is never worse than throwing the old schedule away — the
    [resolved_from_scratch] flag records when the net was needed.

    Tasks with no surviving configuration are {e reported}, never raised
    over: they appear in [infeasible], their [choice] slot is [-1], and the
    rest of the schedule is still valid. *)

type t = {
  choice : int array;  (** per-task chosen hyperedge id, [-1] for infeasible tasks *)
  affected : int list;  (** tasks whose old configuration touched a dead processor *)
  moved : int list;  (** tasks whose final choice differs from the old one *)
  infeasible : int list;  (** tasks with no surviving configuration *)
  makespan : float;
      (** max over processors of [cost u load_u] for the scheduled tasks;
          [0.] when nothing is scheduled *)
  lower_bound : float;
      (** {!val-lower_bound} of [dead] and the instance *)
  resolved_from_scratch : bool;
      (** true when the from-scratch re-solve beat the incremental repair *)
}

val repair :
  ?cost:(int -> float -> float) ->
  dead:bool array ->
  Hyper.Graph.t ->
  Hyp_assignment.t ->
  t
(** [repair ~dead h a] re-places the tasks of [a] that sit on dead
    processors.  [dead] must have length [n2].  [cost u load] is the
    completion time of [load] raw work on processor [u] (default: the load
    itself); pass [Faults.finish_time d] to price slowdowns and stalls into
    the repair decisions.  It must be monotone in the load and map zero load
    to [0.].  The restricted local search runs at most 8 passes.  Never
    raises on dead/infeasible structure — only on malformed arguments
    ([Invalid_argument]). *)

val resolve : ?cost:(int -> float -> float) -> dead:bool array -> Hyper.Graph.t -> t
(** From-scratch comparison point: forget the old schedule and run
    expected-vector-greedy on the surviving machine.  Same reporting
    contract as {!repair}; [affected] and [moved] list every feasible task
    and [resolved_from_scratch] is [true]. *)

(** {2 The surviving machine}

    The tasks that keep a configuration free of dead processors, those
    configurations, and the surviving processors renumbered densely, as a
    standalone instance.  Both take a [dead] mask of length [n2] and raise
    [Invalid_argument] otherwise. *)

val solve_survivors :
  dead:bool array ->
  Hyper.Graph.t ->
  (Hyper.Graph.t -> Hyp_assignment.t * 'a) ->
  int array * 'a option
(** [solve_survivors ~dead h solve] runs [solve] on the surviving machine
    and maps its assignment back to hyperedge ids of [h]: every task with a
    surviving configuration gets one, the others [-1].  Returns that choice
    vector and [solve]'s second component; [(all -1, None)] without
    calling [solve] when no task survives.  Processor loads are the same on
    both sides (the renumbering is a bijection on the survivors), so a
    makespan of the sub-instance is one of [h]. *)

val lower_bound : dead:bool array -> Hyper.Graph.t -> float
(** {!Lower_bound.multiproc_refined} of the surviving machine; [0.] when no
    task survives. *)

(** {2 Delta application}

    The scheduler service ([lib/server]) keeps one instance resident and
    mutates it as tasks arrive and depart.  It places only the delta, with
    the same core {!repair} uses, against the loads of everything that
    stays put. *)

val place : dead:bool array -> loads:float array -> Hyper.Graph.t -> int array
(** [place ~dead ~loads h] places every task of [h] against the processor
    loads [loads] (length [n2]; not modified) of the tasks that stay put:
    greedy re-insertion onto the cheapest surviving configuration
    (fewest-options-first, ties by task id), then the restricted local
    search over the placed tasks.  Returns the chosen hyperedge per task of
    [h], [-1] when none of its configurations survives.

    Unlike {!repair} there is no from-scratch safety net: [place] is the
    {e cheap} incremental path, and callers that want the guarantee run a
    periodic {!Deadline.solve_surviving} instead. *)
