(** Quality-vs-memory experiment for the streaming tier.

    Every instance is written to a temporary edge-stream file and solved
    twice over the same bytes: by the exact in-core tier (forced with an
    unloseable threshold, giving the optimum) and by the bounded-memory
    streaming solvers.  Rows report the makespan ratio next to the proven
    factor and the solver's resident state as a fraction of the CSR the
    stream avoided — the whole point of the tier in two columns. *)

type row = {
  name : string;
  n : int;
  p : int;
  edges : int;
  csr_words : int;  (** what materializing would have cost *)
  opt : float;
  one_ratio : float;  (** median one-pass makespan / opt *)
  one_factor : float;  (** the proven (2⌈√n⌉+1) bound *)
  one_words : int;
  few_ratio : float;
  few_factor : float;  (** the proven 4(log₂n+3) bound *)
  few_words : int;
  few_passes : int;
}

val run : ?seeds:int -> ?scale:int -> ?d:int -> unit -> row list
(** SINGLEPROC-UNIT grid ({!Instances.paper_grid_singleproc}), [seeds]
    replicates per row (default 3), sizes divided by [scale]. *)

val render : row list -> string
val to_csv : row list -> string

(** {1 General streams} *)

type online_row = {
  o_name : string;
  o_edges : int;
  o_lb : float;  (** streamed refined lower bound *)
  o_online : float;
  o_portfolio : float;  (** in-core portfolio on the same instance *)
  o_words : int;
  o_csr_words : int;
}

val run_online : ?seeds:int -> ?scale:int -> unit -> online_row list
(** MULTIPROC grid ({!Instances.paper_grid}, unit weights); the online
    greedy has no proven factor, so quality is reported against both the
    streamed refined LB and the portfolio. *)

val render_online : online_row list -> string
val online_to_csv : online_row list -> string
