(* State shared by the three engines: partial matching with V2 capacities.
   [matched_of] mirrors the matching from the V2 side so that augmenting
   steps can enumerate the current occupants of a saturated processor. *)

module G = Bipartite.Graph

(* Operation counters, reported through [Matching.solve_with_stats] so the
   engine ablation can explain its timings. *)
type stats = {
  mutable phases : int; (* BFS rounds (HK), queue drains (PR) *)
  mutable augmentations : int; (* successful augmenting paths / pushes home *)
  mutable steals : int; (* double-push relocations (PR) *)
  mutable scans : int; (* adjacency scans *)
}

let fresh_stats () = { phases = 0; augmentations = 0; steals = 0; scans = 0 }

type state = {
  g : G.t;
  caps : int array;
  mate1 : int array; (* row -> col or -1 *)
  count2 : int array; (* col -> current occupancy *)
  matched_of : int Ds.Vec.t array; (* col -> occupant rows *)
}

let create g ~caps =
  if Array.length caps <> g.G.n2 then invalid_arg "Matching: capacities length mismatch";
  Array.iter (fun c -> if c < 0 then invalid_arg "Matching: negative capacity") caps;
  {
    g;
    caps;
    mate1 = Array.make g.G.n1 (-1);
    count2 = Array.make g.G.n2 0;
    matched_of = Array.init g.G.n2 (fun _ -> Ds.Vec.create ());
  }

let residual st u = st.caps.(u) - st.count2.(u)

let assign st v u =
  st.mate1.(v) <- u;
  st.count2.(u) <- st.count2.(u) + 1;
  Ds.Vec.push st.matched_of.(u) v

(* Put [v] in slot [i] of [u]'s occupants without touching the mate of the
   row it replaces — augmenting engines call this after that row has
   already been rebound elsewhere by a recursive step. *)
let replace_at st ~v ~from:u i =
  Ds.Vec.set st.matched_of.(u) i v;
  st.mate1.(v) <- u

(* Replace occupant [v'] of [u] by [v] and expose [v'] (push-relabel's
   double-push kicks the victim back into the active set). *)
let steal st ~v ~from:u ~victim:v' =
  let occupants = st.matched_of.(u) in
  let rec find i = if Ds.Vec.get occupants i = v' then i else find (i + 1) in
  replace_at st ~v ~from:u (find 0);
  st.mate1.(v') <- -1

let size st = Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 st.mate1

(* Karp–Sipser-flavoured start: rows in non-decreasing degree order grab the
   first processor with residual capacity.  Constrained rows choose first,
   which empirically leaves few augmenting phases to the exact engines. *)
let greedy_init st =
  let g = st.g in
  let order =
    Ds.Counting_sort.permutation ~n:g.G.n1 ~key:(fun v -> G.degree g v) ~max_key:(max 1 (G.max_degree g))
  in
  let off = g.G.off and adj = g.G.adj in
  Array.iter
    (fun v ->
      let e = ref off.(v) and stop = off.(v + 1) in
      while !e < stop && residual st adj.(!e) <= 0 do
        incr e
      done;
      if !e < stop then assign st v adj.(!e))
    order
