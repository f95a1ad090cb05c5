(** One live instance of the scheduler service: a resident MULTIPROC
    instance plus its incumbent schedule, mutated in place as tasks arrive
    and depart and processors die.

    Tasks carry stable external ids ([tid]s) that survive removals.  The
    session keeps an entry list in insertion order (each task's
    configurations and the index of its chosen one).  [add_tasks],
    [kill_proc] and [of_graph] build a {!Hyper.Graph} of just the entries
    they (re-)place, and {!Semimatch.Repair.place} places those against the
    loads of the others; the rest of the schedule stays put.  The graph of
    the whole session is built lazily from the same entries, in the same
    order, for {!lower_bound}, {!resolve}, {!solve}, snapshots and bundles.
    {!resolve} runs the budgeted from-scratch
    {!Semimatch.Deadline.solve_surviving} and adopts its schedule only when
    it is strictly better than the incumbent. *)

type t

val id : t -> string
val n_tasks : t -> int
val n_procs : t -> int
val dead_procs : t -> int
val unplaced : t -> int list
(** [tid]s currently without a configuration (no surviving one exists). *)

val makespan : t -> float
(** Max processor load of the incumbent schedule ([0.] when empty). *)

type placed = {
  affected : int;  (** entries (re-)placed: the new ones, or those a kill touched *)
  moved : int;  (** of those, the ones that received a configuration *)
  unplaced : int;  (** tasks of the whole session left without one *)
}

val of_graph : id:string -> Hyper.Graph.t -> t * placed
(** Adopt the graph's tasks (tids [0..n1-1]) and greedily place them all. *)

val lower_bound : t -> float
(** The refined lower bound of the session's surviving machine
    ({!Semimatch.Repair.lower_bound}), as the [load] reply carries it. *)

val add_tasks : t -> Protocol.config list list -> (int list * placed, string) result
(** Append one task per configuration list and place them all in one
    {!Semimatch.Repair.place} pass (the batch path); returns the fresh
    [tid]s in request order.  [Error] (validation: processor range,
    duplicate pins, non-positive weight) mutates nothing. *)

val remove_task : t -> int -> (float, string) result
(** Drop a task by [tid]; its load vanishes, nothing else moves.  Returns
    the new makespan. *)

val kill_proc : t -> int -> (placed, string) result
(** Mark a processor dead and incrementally re-place the tasks whose chosen
    configuration touched it (plus any still-unplaced ones).  Idempotent. *)

val resolve : ?jobs:int -> budget_s:float -> t -> Semimatch.Deadline.delta * bool
(** Budgeted from-scratch re-solve of the surviving machine; the incumbent
    is replaced only when the candidate's makespan is {e strictly} better.
    Returns the delta and whether it was adopted. *)

val solve : ?jobs:int -> t -> Semimatch.Deadline.delta
(** Unbudgeted {!resolve} whose result is adopted unconditionally — the
    from-scratch baseline a client asks for by name. *)

val verify : t -> (unit, string) result
(** Feasibility recompute: no task placed on a dead processor, finite
    makespan.  Crash recovery runs this on every restored session; a live
    session always passes (mutations re-place affected tasks). *)

val instance_text : t -> string
(** The current instance as {!Hyper.Io} text — what a diagnostic bundle
    embeds as [instance.hg] so [semimatch doctor] can replay it through
    the solvers without understanding session state. *)

val snapshot : t -> Obs.Json.t
(** Full session state: the instance via {!Hyper.Io.to_string} plus tids,
    chosen configurations, dead processors and the tid counter. *)

val restore : id:string -> Obs.Json.t -> (t, string) result
(** Inverse of {!snapshot}: restoring and continuing is byte-identical to
    never having snapshotted.  [Error] on malformed or inconsistent
    state, a task placed on a dead processor included (with the message
    {!verify} gives). *)
