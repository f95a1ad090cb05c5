type t = {
  n1 : int;
  n2 : int;
  off : int array;
  adj : int array;
  w : float array;
}

let validate_edge ~n1 ~n2 (v, u, weight) =
  if v < 0 || v >= n1 then invalid_arg "Bipartite.Graph: V1 endpoint out of range";
  if u < 0 || u >= n2 then invalid_arg "Bipartite.Graph: V2 endpoint out of range";
  if not (weight > 0.0) then invalid_arg "Bipartite.Graph: weight must be positive"

let create ~n1 ~n2 ~edges =
  if n1 < 0 || n2 < 0 then invalid_arg "Bipartite.Graph.create: negative size";
  List.iter (validate_edge ~n1 ~n2) edges;
  let m = List.length edges in
  let off = Array.make (n1 + 1) 0 in
  List.iter (fun (v, _, _) -> off.(v + 1) <- off.(v + 1) + 1) edges;
  for v = 1 to n1 do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let adj = Array.make m 0 and w = Array.make m 0.0 in
  let cursor = Array.copy off in
  List.iter
    (fun (v, u, weight) ->
      adj.(cursor.(v)) <- u;
      w.(cursor.(v)) <- weight;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  { n1; n2; off; adj; w }

let of_csr ~n1 ~n2 ~off ~adj ~w =
  if n1 < 0 || n2 < 0 then invalid_arg "Bipartite.Graph.of_csr: negative size";
  let m = Array.length adj in
  if Array.length off <> n1 + 1 || off.(0) <> 0 || off.(n1) <> m || Array.length w <> m then
    invalid_arg "Bipartite.Graph.of_csr: malformed offsets";
  for v = 0 to n1 - 1 do
    if off.(v) > off.(v + 1) then invalid_arg "Bipartite.Graph.of_csr: malformed offsets"
  done;
  (* Plain loops: a closure over the float array would box every weight. *)
  for e = 0 to m - 1 do
    let u = adj.(e) in
    if u < 0 || u >= n2 then invalid_arg "Bipartite.Graph: V2 endpoint out of range"
  done;
  for e = 0 to m - 1 do
    if not (w.(e) > 0.0) then invalid_arg "Bipartite.Graph: weight must be positive"
  done;
  { n1; n2; off; adj; w }

let of_adjacency ~n2 adjacency =
  let n1 = Array.length adjacency in
  let edges = ref [] in
  for v = n1 - 1 downto 0 do
    List.iter (fun (u, weight) -> edges := (v, u, weight) :: !edges) (List.rev adjacency.(v))
  done;
  create ~n1 ~n2 ~edges:!edges

let unit_weights ~n1 ~n2 ~edges = create ~n1 ~n2 ~edges:(List.map (fun (v, u) -> (v, u, 1.0)) edges)

let num_edges g = Array.length g.adj
let degree g v = g.off.(v + 1) - g.off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n1 - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let iter_neighbors g v f =
  for e = g.off.(v) to g.off.(v + 1) - 1 do
    f g.adj.(e) g.w.(e)
  done

let fold_neighbors g v ~init ~f =
  let acc = ref init in
  for e = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f !acc ~edge:e g.adj.(e) g.w.(e)
  done;
  !acc

let edge_endpoint g e = g.adj.(e)

let edge_task g e =
  let lo = ref 0 and hi = ref (g.n1 - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.off.(mid + 1) <= e then lo := mid + 1 else hi := mid
  done;
  !lo

let edge_weight g e = g.w.(e)

let in_degrees g =
  let deg = Array.make g.n2 0 in
  Array.iter (fun u -> deg.(u) <- deg.(u) + 1) g.adj;
  deg

let is_unit_weighted g =
  let w = g.w in
  let rec scan e = e = Array.length w || (w.(e) = 1.0 && scan (e + 1)) in
  scan 0

let has_isolated_task g =
  let rec scan v = v < g.n1 && (degree g v = 0 || scan (v + 1)) in
  scan 0

let equal_structure a b =
  a.n1 = b.n1 && a.n2 = b.n2 && a.off = b.off && a.adj = b.adj && a.w = b.w

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph bipartite {\n  rankdir=LR;\n";
  for v = 0 to g.n1 - 1 do
    Buffer.add_string buf (Printf.sprintf "  t%d [label=\"T%d\" shape=circle];\n" v (v + 1))
  done;
  for u = 0 to g.n2 - 1 do
    Buffer.add_string buf (Printf.sprintf "  p%d [label=\"P%d\" shape=box];\n" u (u + 1))
  done;
  for v = 0 to g.n1 - 1 do
    iter_neighbors g v (fun u weight ->
        if weight = 1.0 then Buffer.add_string buf (Printf.sprintf "  t%d -- p%d;\n" v u)
        else Buffer.add_string buf (Printf.sprintf "  t%d -- p%d [label=\"%g\"];\n" v u weight))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf g =
  Format.fprintf ppf "bipartite graph: |V1|=%d |V2|=%d |E|=%d%s" g.n1 g.n2 (num_edges g)
    (if is_unit_weighted g then " (unit weights)" else "")
