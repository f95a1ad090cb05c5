module H = Hyper.Graph
module G = Bipartite.Graph

(* One pass over the tasks: Σ_v min_h w_h·|h∩V2| and max_v min_h w_h. *)
let cheapest_sums h =
  let { H.task_off; h_off; w; _ } = h in
  let total = ref 0.0 and heaviest = ref 0.0 in
  for v = 0 to h.H.n1 - 1 do
    if task_off.(v + 1) = task_off.(v) then
      invalid_arg "Lower_bound: task without configuration";
    let time = ref infinity and weight = ref infinity in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let we = w.(e) in
      let t = we *. float_of_int (h_off.(e + 1) - h_off.(e)) in
      if t < !time then time := t;
      if we < !weight then weight := we
    done;
    total := !total +. !time;
    if !weight > !heaviest then heaviest := !weight
  done;
  (!total, !heaviest)

let no_processors () = invalid_arg "Lower_bound.multiproc: no processors"

let multiproc h =
  if h.H.n2 = 0 then no_processors ();
  let total, _ = cheapest_sums h in
  total /. float_of_int h.H.n2

let multiproc_refined h =
  let total, heaviest = cheapest_sums h in
  if h.H.n2 = 0 then no_processors ();
  Float.max (total /. float_of_int h.H.n2) heaviest

let singleproc g =
  if g.G.n2 = 0 then invalid_arg "Lower_bound.singleproc: no processors";
  let total = ref 0.0 and heaviest = ref 0.0 in
  for v = 0 to g.G.n1 - 1 do
    if G.degree g v = 0 then invalid_arg "Lower_bound: task without allowed processor";
    let best = ref infinity in
    G.iter_neighbors g v (fun _u w -> if w < !best then best := w);
    total := !total +. !best;
    if !best > !heaviest then heaviest := !best
  done;
  Float.max (!total /. float_of_int g.G.n2) !heaviest

let singleproc_unit g =
  if g.G.n2 = 0 then invalid_arg "Lower_bound.singleproc_unit: no processors";
  if g.G.n1 = 0 then 0 else ((g.G.n1 - 1) / g.G.n2) + 1
