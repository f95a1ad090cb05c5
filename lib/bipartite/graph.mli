(** Bipartite graphs G = (V1 ∪ V2, E) in compressed sparse row form.

    V1 models tasks, V2 models processors (paper Sec. II-A).  Vertices are
    dense integers: V1 = [0 .. n1-1], V2 = [0 .. n2-1].  Edges carry a weight
    (the execution time of the task on that processor); unweighted problems
    use weight 1.  Adjacency is stored once from the V1 side; the V2-side view
    needed by [double-sorted] (processor in-degrees) is derived on demand.

    The CSR arrays are never mutated after construction, so graphs may share
    them ({!of_csr}; [Hyper.Graph.of_bipartite]/[to_bipartite]). *)

type t = private {
  n1 : int;  (** number of V1 (task) vertices *)
  n2 : int;  (** number of V2 (processor) vertices *)
  off : int array;  (** length [n1+1]; V1-side CSR offsets *)
  adj : int array;  (** V2 endpoints, grouped by V1 vertex *)
  w : float array;  (** edge weights, aligned with [adj] *)
}

val create : n1:int -> n2:int -> edges:(int * int * float) list -> t
(** [create ~n1 ~n2 ~edges] builds the CSR form from [(v1, v2, weight)]
    triples.  Validates endpoint ranges and strictly positive weights; raises
    [Invalid_argument] otherwise.  Parallel edges are allowed (a task may
    legitimately offer the same processor at different costs), self-structure
    is impossible by typing. *)

val of_csr : n1:int -> n2:int -> off:int array -> adj:int array -> w:float array -> t
(** The graph whose CSR arrays these are, taken as they are (not copied).
    Validates the offsets (length [n1+1], from 0 to [length adj],
    nondecreasing), endpoint ranges and strictly positive weights; raises
    [Invalid_argument] otherwise. *)

val of_adjacency : n2:int -> (int * float) list array -> t
(** [of_adjacency ~n2 adj] where [adj.(v)] lists the [(processor, weight)]
    options of task [v]. *)

val unit_weights : n1:int -> n2:int -> edges:(int * int) list -> t
(** [create] with every weight 1. *)

val num_edges : t -> int
val degree : t -> int -> int
(** Out-degree (number of allowed processors) of a V1 vertex. *)

val max_degree : t -> int
(** Largest V1 out-degree; 0 for edgeless graphs. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g v f] calls [f u w] for each edge (v,u) of weight [w]. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> edge:int -> int -> float -> 'a) -> 'a
(** Fold over the edges of [v]; [edge] is the global edge index usable to
    name a chosen edge in an assignment. *)

val edge_endpoint : t -> int -> int
(** V2 endpoint of a global edge index. *)

val edge_task : t -> int -> int
(** V1 endpoint of a global edge index (found by binary search over the CSR
    offsets: O(log n1)). *)

val edge_weight : t -> int -> float

val in_degrees : t -> int array
(** Per-V2-vertex edge counts (the d_u of the double-sorted heuristic). *)

val is_unit_weighted : t -> bool
val has_isolated_task : t -> bool
(** True when some V1 vertex has no edge (the instance is infeasible). *)

val equal_structure : t -> t -> bool
(** Same sizes, offsets, endpoints and weights. *)

val to_dot : t -> string
(** Graphviz rendering for small graphs (documentation and debugging). *)

val pp : Format.formatter -> t -> unit
