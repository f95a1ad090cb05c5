(** The paper's experimental grid (Sec. V-A) and instance naming.

    MULTIPROC instances combine n ∈ {1280, 5120, 20480} tasks with
    p ∈ {256, 1024, 4096} processors (skipping n < 5p), a generator family
    (FewgManyg or HiLo) and a group count g ∈ {32, 128}; names follow the
    paper: e.g. [FG-20-4-MP] is FewgManyg with n = 20·256, p = 4·256, g = 32,
    and [MG]/[HLM] mark the g = 128 ("many groups") variants.  A [-W] suffix
    denotes Related weights.

    SINGLEPROC instances use the same n, p grid directly on the bipartite
    generators with d ∈ {2, 5, 10}. *)

type multiproc_spec = {
  name : string;  (** e.g. "FG-20-4-MP" *)
  family : Hyper.Generate.family;
  n : int;
  p : int;
  dv : int;
  dh : int;
  g : int;
}

val paper_grid : unit -> multiproc_spec list
(** The 24 rows of Table I in paper order (FewgManyg block then HiLo block),
    at [dv] = 5 and [dh] = 10, the combination the paper details. *)

val scaled : int -> multiproc_spec -> multiproc_spec
(** [scaled k spec] divides [n] and [p] by [k] (keeping n ≥ 5p ≥ 5) for
    smoke-test runs; the name gains a ["/k"] suffix. *)

val generate_multiproc :
  seed:int -> weights:Hyper.Weights.t -> multiproc_spec -> Hyper.Graph.t
(** One replicate; [seed] selects the random stream.  Instances are
    deterministic in (spec, weights, seed). *)

type singleproc_spec = {
  sp_name : string;
  sp_family : [ `Fewg_manyg | `Hilo ];
  sp_n : int;
  sp_p : int;
  sp_d : int;
  sp_g : int;
}

val paper_grid_singleproc : ?d:int -> unit -> singleproc_spec list
(** The SINGLEPROC-UNIT grid for a given [d] (default 10, the detailed
    choice). *)

val scaled_singleproc : int -> singleproc_spec -> singleproc_spec
(** Counterpart of {!scaled} for bipartite specs. *)

val generate_singleproc : seed:int -> singleproc_spec -> Bipartite.Graph.t
