(** Fault-tolerance study: schedule quality after processor failures.

    For a grid of kill fractions, generate MULTIPROC instances, solve them
    with expected-vector-greedy, crash a random subset of the processors
    (seeded, so rows are reproducible), and repair incrementally with
    {!Semimatch.Repair}.  Reported per fraction, median over seeds:

    - repaired makespan / surviving-machine lower bound — the headline
      curve: how much schedule quality survives losing that slice of the
      machine;
    - the from-scratch re-solve's same ratio, for comparison;
    - mean affected / moved / infeasible task counts (repair cost);
    - how often the from-scratch re-solve beat the incremental repair
      (i.e. {!Semimatch.Repair} fell back to its safety net). *)

type row = {
  kill_fraction : float;
  affected_mean : float;
  moved_mean : float;
  infeasible_mean : float;
  repair_ratio : float;  (** median repaired makespan / surviving LB *)
  resolve_ratio : float;  (** median from-scratch makespan / surviving LB *)
  resolve_wins : int;  (** replicates where the safety net was needed *)
}

val run_row : ?seeds:int -> ?n:int -> ?p:int -> kill_fraction:float -> unit -> row
(** Defaults: 5 seeds, n = 320 tasks, p = 64 processors (FewgManyg family,
    related weights). *)

val run : ?seeds:int -> unit -> row list
(** One row per kill fraction of the grid 0.05, 0.125, 0.25, 0.5. *)

val render : row list -> string
(** Human-readable table. *)

val write_json : string -> row list -> unit
(** One JSON object per row (JSON-lines), for the CI artifact. *)
