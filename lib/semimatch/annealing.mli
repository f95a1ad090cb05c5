(** Simulated annealing over configuration choices (extension, in the spirit
    of the paper's "design new algorithms" future work).

    The state is a complete assignment; a move re-routes one uniformly random
    task to a uniformly random alternative configuration.  Energy is the
    squared-load sum Σ l(u)² — a smooth surrogate whose minimum coincides
    with well-balanced schedules and which, unlike the raw makespan, gives
    gradient even when the bottleneck processor is untouched.  Moves are
    accepted by the Metropolis rule under a geometric cooling schedule; the
    best-seen assignment by {e makespan} is returned, so the result is never
    worse than the starting point. *)

type params = {
  iterations : int;  (** total proposed moves (default 20_000) *)
  initial_temperature : float;
      (** in energy units; default: average squared hyperedge weight *)
  cooling : float;  (** geometric factor per iteration (default 0.9995) *)
}

val default_params : Hyper.Graph.t -> params

val refine :
  ?params:params ->
  ?should_stop:(unit -> bool) ->
  Randkit.Prng.t ->
  Hyper.Graph.t ->
  Hyp_assignment.t ->
  Hyp_assignment.t * float
(** [refine rng h start] returns the best assignment found and its makespan,
    recomputed from the assignment ({!Hyp_assignment.makespan}): the loads
    tracked during the search only steer it.  Deterministic in (rng seed, params, start) when [should_stop] never
    fires.  [should_stop] (default never) is polled every few hundred
    iterations; once it returns true the loop ends early and the best-seen
    assignment is returned — {!Portfolio} uses this for cancellation and
    for cutoff once a sibling solver has already matched the lower bound. *)

val solve :
  ?params:params ->
  ?should_stop:(unit -> bool) ->
  Randkit.Prng.t ->
  Hyper.Graph.t ->
  Hyp_assignment.t * float
(** [refine] starting from sorted-greedy-hyp. *)
