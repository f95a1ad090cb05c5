(** Weighted SINGLEPROC study (an extension: the paper proves this case
    NP-complete via [24] and then focuses on the unit case; here we measure
    how the same greedy ideas fare when execution times differ across
    processors).

    Instances are random bipartite graphs with integer edge weights uniform
    in [1, wmax]: task degrees binomial with mean [d].  Quality is the ratio
    to the {!Semimatch.Lower_bound.singleproc} bound; for tiny instances the
    exact branch-and-bound optimum is reported alongside, giving a direct
    view of how loose the bound is. *)

type row = {
  label : string;
  n : int;
  p : int;
  lb : float;  (** median lower bound *)
  opt : float option;  (** median optimum, when brute force is affordable *)
  ratios : (Semimatch.Greedy_bipartite.algorithm * float) list;
  refined_ratio : float;  (** best heuristic + local search *)
}

val run_row : ?seeds:int -> n:int -> p:int -> unit -> row
(** [seeds] (default 5) random instances with n tasks, p processors,
    degree 3 and integer weights in [1, 10]. *)

val run : ?seeds:int -> unit -> row list
(** Default ladder: (10,3) with brute force, then (100,16), (1000,64),
    (5000,128) against the lower bound. *)

val render : row list -> string
