module H = Hyper.Graph

type t = { choice : int array }

let check h choice =
  if Array.length choice <> h.H.n1 then invalid_arg "Hyp_assignment: length mismatch";
  Array.iteri
    (fun v e ->
      if e < h.H.task_off.(v) || e >= h.H.task_off.(v + 1) then
        invalid_arg "Hyp_assignment: chosen hyperedge does not belong to the task")
    choice

let of_choices h choice =
  check h choice;
  { choice = Array.copy choice }

let alloc h t v = H.h_procs h t.choice.(v)

let loads h t =
  let { H.h_off; h_adj; w; _ } = h in
  let l = Array.make h.H.n2 0.0 in
  let choice = t.choice in
  for v = 0 to Array.length choice - 1 do
    let e = choice.(v) in
    let we = w.(e) in
    for i = h_off.(e) to h_off.(e + 1) - 1 do
      let u = h_adj.(i) in
      l.(u) <- l.(u) +. we
    done
  done;
  l

(* [Stdlib.max] from 0, written out: [m >= x] keeps [m], as [max m x]
   does. *)
let makespan h t =
  let l = loads h t in
  let m = ref 0.0 in
  for u = 0 to Array.length l - 1 do
    let x = l.(u) in
    if not (!m >= x) then m := x
  done;
  !m

let total_work h t =
  Array.fold_left
    (fun acc e -> acc +. (H.h_weight h e *. float_of_int (H.h_size h e)))
    0.0 t.choice

let is_valid h t =
  match check h t.choice with exception Invalid_argument _ -> false | () -> true
