module G = Bipartite.Graph

type t = { edge : int array }

let check g edge =
  if Array.length edge <> g.G.n1 then invalid_arg "Bip_assignment: length mismatch";
  Array.iteri
    (fun v e ->
      if e < g.G.off.(v) || e >= g.G.off.(v + 1) then
        invalid_arg "Bip_assignment: chosen edge does not belong to the task")
    edge

let of_edges g edge =
  check g edge;
  { edge = Array.copy edge }

let of_mates g mates =
  if Array.length mates <> g.G.n1 then invalid_arg "Bip_assignment.of_mates: length mismatch";
  let off = g.G.off and adj = g.G.adj in
  let edge = Array.make g.G.n1 0 in
  for v = 0 to g.G.n1 - 1 do
    let u = mates.(v) and e = ref off.(v) and stop = off.(v + 1) in
    while !e < stop && adj.(!e) <> u do
      incr e
    done;
    if !e = stop then invalid_arg "Bip_assignment.of_mates: no edge to assigned processor";
    edge.(v) <- !e
  done;
  { edge }

let processor g t v = G.edge_endpoint g t.edge.(v)

let loads g t =
  let l = Array.make g.G.n2 0.0 in
  Array.iter
    (fun e ->
      let u = G.edge_endpoint g e in
      l.(u) <- l.(u) +. G.edge_weight g e)
    t.edge;
  l

let makespan g t = Array.fold_left max 0.0 (loads g t)

let is_valid g t =
  match check g t.edge with exception Invalid_argument _ -> false | () -> true
