(** MULTIPROC experiment driver: regenerates Tables I, II and III (and the
    technical report's random-weights variant).

    For each instance specification it draws [seeds] replicates, runs every
    heuristic on each, and aggregates the paper's way: medians of instance
    statistics, of the lower bound and of the makespan/LB quality ratios,
    and mean wall-clock times. *)

type algo_result = {
  algo : Semimatch.Greedy_hyper.algorithm;
  ratio : float;  (** median makespan / LB over the replicates *)
  time_s : float;  (** mean seconds per replicate *)
}

type row = {
  spec : Instances.multiproc_spec;
  weights : Hyper.Weights.t;
  lb : float;  (** median of Eq. 1 over the replicates *)
  num_hyperedges : int;  (** median |N| *)
  num_pins : int;  (** median Σ|h∩V2| *)
  results : algo_result list;
}

val time_it : ?span:string -> (unit -> 'a) -> 'a * float
(** [time_it f] runs [f] and returns its monotonic wall time in seconds
    ([Obs.Span.time_s], immune to NTP adjustments).  With telemetry enabled
    the measurement is also recorded as the span [span] (default
    ["experiments.run"]).  Shared by every experiment driver. *)

val run_row :
  ?algorithms:Semimatch.Greedy_hyper.algorithm list ->
  ?seeds:int ->
  weights:Hyper.Weights.t ->
  Instances.multiproc_spec ->
  row
(** [algorithms] defaults to SGH, VGH, EGH, EVG, the Table II/III column
    order; [seeds] defaults to 10, the paper's replication. *)

val run :
  ?algorithms:Semimatch.Greedy_hyper.algorithm list ->
  ?seeds:int ->
  ?scale:int ->
  ?jobs:int ->
  weights:Hyper.Weights.t ->
  unit ->
  row list
(** The full 24-instance grid; [scale] (default 1) divides instance sizes via
    {!Instances.scaled}.  [jobs] (default 1) fans the rows out over domains
    with {!Parpool.Pool.map} — quality numbers are unaffected, but keep
    [jobs = 1] when the timing columns matter. *)

val render_table1 : row list -> string
(** Table I: instance statistics. *)

val render_quality : title:string -> row list -> string
(** Tables II/III: LB and per-heuristic ratios, with the Average-quality and
    Average-time footer computed per generator block (FewgManyg rows first,
    HiLo rows second) exactly like the paper when both blocks are present. *)

val to_csv : row list -> string
(** Machine-readable dump of everything measured. *)
