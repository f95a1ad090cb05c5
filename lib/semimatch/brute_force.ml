module H = Hyper.Graph

let search_space_guard ~limit h =
  let space = ref 1.0 in
  for v = 0 to h.H.n1 - 1 do
    space := !space *. float_of_int (H.task_degree h v)
  done;
  if !space > float_of_int limit then
    invalid_arg "Brute_force: search space exceeds the limit"

let multiproc ?(limit = 10_000_000) h =
  if H.has_isolated_task h then invalid_arg "Brute_force.multiproc: infeasible instance";
  search_space_guard ~limit h;
  (* Tasks in decreasing cheapest-work order tighten the bound early. *)
  let cheapest v =
    let best = ref infinity in
    H.iter_task_hyperedges h v (fun e ->
        let t = H.h_weight h e *. float_of_int (H.h_size h e) in
        if t < !best then best := t);
    !best
  in
  let order = Array.init h.H.n1 (fun v -> v) in
  Array.sort (fun a b -> compare (cheapest b) (cheapest a)) order;
  (* suffix_work.(i) = Σ cheapest work of tasks order.(i..): remaining-load
     bound (LB of Eq. 1 restricted to unscheduled tasks). *)
  let n = h.H.n1 in
  let suffix_work = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix_work.(i) <- suffix_work.(i + 1) +. cheapest order.(i)
  done;
  let p = float_of_int (max h.H.n2 1) in
  let loads = Array.make h.H.n2 0.0 in
  let choice = Array.make n (-1) in
  let best_choice = Array.make n (-1) in
  let best = ref infinity in
  let total_load = ref 0.0 in
  let rec go i current_max =
    if current_max >= !best then ()
    else if (!total_load +. suffix_work.(i)) /. p >= !best then ()
    else if i = n then begin
      best := current_max;
      Array.blit choice 0 best_choice 0 n
    end
    else begin
      let v = order.(i) in
      H.iter_task_hyperedges h v (fun e ->
          let w = H.h_weight h e in
          let new_max = ref current_max in
          H.iter_h_procs h e (fun u ->
              let l = loads.(u) +. w in
              if l > !new_max then new_max := l);
          if !new_max < !best then begin
            H.iter_h_procs h e (fun u -> loads.(u) <- loads.(u) +. w);
            total_load := !total_load +. (w *. float_of_int (H.h_size h e));
            choice.(v) <- e;
            go (i + 1) !new_max;
            choice.(v) <- -1;
            total_load := !total_load -. (w *. float_of_int (H.h_size h e));
            H.iter_h_procs h e (fun u -> loads.(u) <- loads.(u) -. w)
          end)
    end
  in
  go 0 0.0;
  (* [best] steers the search; the add/subtract sums behind it can miss the
     returned schedule's own makespan by rounding on non-integer weights. *)
  let a = Hyp_assignment.of_choices h best_choice in
  (Hyp_assignment.makespan h a, a)

let singleproc ?limit g =
  let h = H.of_bipartite g in
  let opt, a = multiproc ?limit h in
  (opt, Bip_assignment.of_edges g a.Hyp_assignment.choice)
