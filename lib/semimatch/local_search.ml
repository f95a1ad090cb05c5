module H = Hyper.Graph
module Lv = Ds.Load_vector

(* Probe points: [rounds] = full passes over the tasks (the refinement-round
   count reports quote), [moves] = accepted improvements, [candidates] =
   evaluated moves — acceptance rate is moves/candidates. *)
let c_rounds = Obs.Metrics.counter "semimatch.local_search.rounds"
let c_moves = Obs.Metrics.counter "semimatch.local_search.moves"
let c_candidates = Obs.Metrics.counter "semimatch.local_search.candidates"

(* Every move of a task out of e_old starts with the same half, [leave]:
   −w_old on each processor of e_old, whose position in [leave] is
   [index_of.(u)] (−1 for the other processors).  [move_to] copies it into
   [d] and adds +w_new on e_new's processors, summed where the two
   overlap. *)
let move_to h ~index_of ~(leave : Lv.delta) (d : Lv.delta) e_new =
  Array.blit leave.procs 0 d.procs 0 leave.len;
  Array.blit leave.amounts 0 d.amounts 0 leave.len;
  d.len <- leave.len;
  let w_new = h.H.w.(e_new) in
  for i = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
    let u = h.H.h_adj.(i) in
    let j = index_of.(u) in
    if j >= 0 then d.amounts.(j) <- d.amounts.(j) +. w_new
    else begin
      d.procs.(d.len) <- u;
      d.amounts.(d.len) <- w_new;
      d.len <- d.len + 1
    end
  done

let refine ?(max_passes = 50) h a =
  if max_passes < 0 then invalid_arg "Local_search.refine: negative pass budget";
  let choice = Array.copy a.Hyp_assignment.choice in
  let lv = Lv.create h.H.n2 in
  Array.iter (fun e -> Lv.apply lv ~procs:(H.h_procs h e) ~w:(H.h_weight h e)) choice;
  let index_of = Array.make h.H.n2 (-1) in
  let leave = Lv.delta lv in
  (* The best move so far for the current task, and the candidate; an empty
     [best] is "stay", and the two swap when the candidate wins. *)
  let best = ref (Lv.delta lv) and cand = ref (Lv.delta lv) in
  let moves = ref 0 in
  let pass_no = ref 0 in
  let pass () =
    Obs.Metrics.incr c_rounds;
    incr pass_no;
    let moves_before = !moves in
    let improved = ref false in
    for v = 0 to h.H.n1 - 1 do
      (* Each pass makes at most one move per task: to the configuration
         whose move gives the smallest load vector, the first in input order
         on ties, and only if that vector is strictly smaller than staying
         put. *)
      let e_old = choice.(v) in
      let w_old = h.H.w.(e_old) in
      leave.len <- 0;
      for i = h.H.h_off.(e_old) to h.H.h_off.(e_old + 1) - 1 do
        let u = h.H.h_adj.(i) in
        index_of.(u) <- leave.len;
        leave.procs.(leave.len) <- u;
        leave.amounts.(leave.len) <- -.w_old;
        leave.len <- leave.len + 1
      done;
      let best_e = ref e_old in
      !best.len <- 0;
      for e_new = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
        if e_new <> e_old then begin
          Obs.Metrics.incr c_candidates;
          move_to h ~index_of ~leave !cand e_new;
          if Lv.compare_hypothetical lv !cand !best < 0 then begin
            best_e := e_new;
            let d = !cand in
            cand := !best;
            best := d
          end
        end
      done;
      for i = 0 to leave.len - 1 do
        index_of.(leave.procs.(i)) <- -1
      done;
      if !best_e <> e_old then begin
        Lv.apply_delta lv !best;
        choice.(v) <- !best_e;
        incr moves;
        Obs.Metrics.incr c_moves;
        improved := true
      end
    done;
    (* One event per full pass over the tasks: coarse enough for any
       instance size, yet it shows the improvement tail flatten. *)
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "local_search.pass"
        [
          Obs.Events.int "pass" !pass_no;
          Obs.Events.int "moves" (!moves - moves_before);
          Obs.Events.bool "improved" !improved;
        ];
    !improved
  in
  let rec loop remaining = if remaining > 0 && pass () then loop (remaining - 1) in
  loop max_passes;
  (Hyp_assignment.of_choices h choice, !moves)

let refine_bipartite g a =
  let h = H.of_bipartite g in
  (* The embedding lists one singleton hyperedge per bipartite edge in the
     same order, so edge ids and hyperedge ids coincide. *)
  let start = Hyp_assignment.of_choices h a.Bip_assignment.edge in
  let refined, moves = refine h start in
  (Bip_assignment.of_edges g refined.Hyp_assignment.choice, moves)
