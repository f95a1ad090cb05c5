(** Ablation studies for the design choices DESIGN.md calls out.

    Each study measures on one instance specification over several seeds
    and renders a small table:

    - vector variants: naive re-sorting vs comparing only the changed
      values in the two vector heuristics (Sec. IV-D3's unimplemented
      improvement) — identical outputs, different costs.
    - matching engines: the exact SINGLEPROC-UNIT algorithm under each
      maximum-matching engine.
    - exact strategies: incremental vs bisection deadline search
      (deadlines tried and wall-clock), plus Harvey et al.'s direct
      algorithm as a third exact method.
    - baselines: the informed heuristics against random assignment,
      random-order greedy, local search and GRASP-style restarts, under
      related weights. *)

type table = string
(** Rendered plain text. *)

val run_all : ?seeds:int -> ?scale:int -> unit -> table
(** All four ablations on representative instances of the paper grid,
    concatenated. *)
