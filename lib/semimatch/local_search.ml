module H = Hyper.Graph
module Lv = Ds.Load_vector

(* Probe points: [rounds] = full passes over the tasks (the refinement-round
   count reports quote), [moves] = accepted improvements, [candidates] =
   evaluated moves — acceptance rate is moves/candidates — and [skipped] =
   settled tasks whose moves were not evaluated at all.  [refine] counts
   locally and adds its totals once per call. *)
let c_rounds = Obs.Metrics.counter "semimatch.local_search.rounds"
let c_moves = Obs.Metrics.counter "semimatch.local_search.moves"
let c_candidates = Obs.Metrics.counter "semimatch.local_search.candidates"
let c_skipped = Obs.Metrics.counter "semimatch.local_search.skipped"

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

(* [d] := configuration [e]'s processors, each at [amount]. *)
let[@inline] set_config h (d : Lv.delta) e amount =
  d.len <- 0;
  for i = h.H.h_off.(e) to h.H.h_off.(e + 1) - 1 do
    d.procs.(d.len) <- h.H.h_adj.(i);
    d.amounts.(d.len) <- amount;
    d.len <- d.len + 1
  done

(* Has no load that task [v]'s verdict reads changed since [v] settled at
   move count [s]?  Never true for [s] = −1, since every count is >= 0. *)
let unchanged_since h changed s v =
  let i = ref h.H.h_off.(h.H.task_off.(v)) and stop = h.H.h_off.(h.H.task_off.(v + 1)) in
  while !i < stop && changed.(h.H.h_adj.(!i)) <= s do
    incr i
  done;
  !i = stop

let refine ?(max_passes = 50) h a =
  if max_passes < 0 then invalid_arg "Local_search.refine: negative pass budget";
  let choice = Array.copy a.Hyp_assignment.choice in
  let lv = Lv.create h.H.n2 in
  let leave = Lv.delta lv in
  Array.iter
    (fun e ->
      set_config h leave e h.H.w.(e);
      Lv.apply_delta lv leave)
    choice;
  let index_of = Array.make h.H.n2 (-1) in
  (* The best move so far for the current task, and the candidate; an empty
     [best] is "stay", and the two swap when the candidate wins. *)
  let best = ref (Lv.delta lv) and cand = ref (Lv.delta lv) in
  (* A task's verdict depends only on its own choice and on the loads of
     its configurations' processors.  [changed.(u)] is the move count just
     after the last move that touched processor u; [settled.(v)] the move
     count when v was last found with no strictly better move, −1 before.
     While every processor of v's configurations has [changed.(u) <=
     settled.(v)], v would settle again, so it is skipped: every move, the
     order of moves and the pass count stay those of a full sweep. *)
  let changed = Array.make h.H.n2 0 in
  let settled = Array.make h.H.n1 (-1) in
  let moves = ref 0 and candidates = ref 0 and skipped = ref 0 in
  let pass_no = ref 0 in
  let pass () =
    incr pass_no;
    let moves_before = !moves in
    for v = 0 to h.H.n1 - 1 do
      if unchanged_since h changed settled.(v) v then incr skipped
      else begin
        (* Each pass makes at most one move per task: to the configuration
           whose move gives the smallest load vector, the first in input
           order on ties, and only if that vector is strictly smaller than
           staying put. *)
        let e_old = choice.(v) in
        set_config h leave e_old (-.h.H.w.(e_old));
        for i = 0 to leave.len - 1 do
          index_of.(leave.procs.(i)) <- i
        done;
        let best_e = ref e_old in
        !best.len <- 0;
        for e_new = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
          if e_new <> e_old then begin
            incr candidates;
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
          let d = !best in
          Lv.apply_delta lv d;
          choice.(v) <- !best_e;
          incr moves;
          (* [d] covers e_old's processors and e_new's. *)
          for i = 0 to d.len - 1 do
            changed.(d.procs.(i)) <- !moves
          done
        end
        else settled.(v) <- !moves
      end
    done;
    let improved = !moves > moves_before in
    (* One event per full pass over the tasks: coarse enough for any
       instance size, yet it shows the improvement tail flatten. *)
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "local_search.pass"
        [
          Obs.Events.int "pass" !pass_no;
          Obs.Events.int "moves" (!moves - moves_before);
          Obs.Events.bool "improved" improved;
        ];
    improved
  in
  let rec loop remaining = if remaining > 0 && pass () then loop (remaining - 1) in
  loop max_passes;
  Obs.Metrics.add c_rounds !pass_no;
  Obs.Metrics.add c_moves !moves;
  Obs.Metrics.add c_candidates !candidates;
  Obs.Metrics.add c_skipped !skipped;
  (Hyp_assignment.of_choices h choice, !moves)

let refine_bipartite g a =
  let h = H.of_bipartite g in
  (* The embedding lists one singleton hyperedge per bipartite edge in the
     same order, so edge ids and hyperedge ids coincide. *)
  let start = Hyp_assignment.of_choices h a.Bip_assignment.edge in
  let refined, moves = refine h start in
  (Bip_assignment.of_edges g refined.Hyp_assignment.choice, moves)
