(** SINGLEPROC-UNIT experiment driver (paper Sec. V-B).

    Runs the four bipartite greedy heuristics and the exact algorithm on the
    HiLo / FewgManyg bipartite grid, reporting the median optimal makespan,
    each heuristic's median makespan/optimal ratio, and mean times.  The
    paper only summarizes these results in prose (details live in the
    technical report); this runner regenerates the full table backing that
    summary. *)

type algo_result = {
  algo : Semimatch.Greedy_bipartite.algorithm;
  ratio : float;  (** median makespan / optimal *)
  time_s : float;
}

type row = {
  spec : Instances.singleproc_spec;
  optimum : float;  (** median exact makespan *)
  exact_time_s : float;
  results : algo_result list;
}

val run_row :
  ?algorithms:Semimatch.Greedy_bipartite.algorithm list ->
  ?seeds:int ->
  Instances.singleproc_spec ->
  row
(** [seeds] defaults to 10.  HiLo instances are deterministic, so their
    replicates coincide — medians are still well defined. *)

val run :
  ?algorithms:Semimatch.Greedy_bipartite.algorithm list ->
  ?seeds:int ->
  ?scale:int ->
  ?d:int ->
  ?jobs:int ->
  unit ->
  row list

val render : title:string -> row list -> string
val to_csv : row list -> string
