(** The streaming tier's front door: solve an edge-stream file, falling
    back to the exact/portfolio tier automatically when the instance fits
    in core.

    The decision is O(1): the sealed header's CSR estimate
    ({!Hyper.Stream_io.csr_estimate_words}) is compared against a word
    budget before any record is read.  Small instances are materialized and
    solved exactly (unit bipartite) or by the portfolio (general); large
    ones are solved by the bounded-memory Konrad–Rosén solvers with the
    CSR never existing. *)

type stream_solver = Auto | One_pass | Few_pass

val stream_solver_of_string : string -> stream_solver option

type tier =
  | In_core_exact  (** materialized, unit bipartite: the exact-engine race *)
  | In_core_portfolio  (** materialized, general: the heuristic portfolio *)
  | Stream_kr of Kr.guarantee  (** solved over the stream, never materialized *)

val tier_name : tier -> string
(** ["incore-exact"], ["incore-portfolio"], ["stream-one-pass-sqrt"],
    ["stream-few-pass-log"], ["stream-online-greedy"]. *)

type outcome = {
  tier : tier;
  makespan : float;
  lower_bound : float;
  guarantee : string;  (** what the winning tier certifies *)
  factor : float;  (** proven makespan/opt bound; [nan] for heuristics *)
  passes : int;
  edges : int;
  header : Hyper.Stream_io.header;
  graph : Hyper.Graph.t option;  (** the materialized instance, in-core tiers only *)
  assignment : int array option;  (** task → processor, streamed singleton tiers *)
}

val default_threshold_words : int
(** 8M words ≈ 64 MB of CSR. *)

val solve :
  ?jobs:int ->
  ?threshold_words:int ->
  ?stream_solver:stream_solver ->
  string ->
  outcome
(** [solve path] ingests the stream at [path].  [stream_solver] picks the
    solver when the streamed tier wins and the stream is singleton
    unit-weight ([Auto] = few-pass, the better factor); general streams
    always get the online greedy.  [jobs] (default 1) is passed to the
    in-core tier's {!Semimatch.Portfolio.solve_exact_unit} or
    {!Semimatch.Portfolio.solve}.  Raises [Failure] on unsealed or corrupt
    files and [Invalid_argument]/[Failure] on infeasible instances. *)
