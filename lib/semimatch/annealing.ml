module H = Hyper.Graph

(* Probe points: acceptance split of proposed moves; [improved_best] counts
   how often the incumbent was beaten (cooling-schedule diagnostics).
   [refine] counts locally and adds its totals once per call. *)
let c_accepted = Obs.Metrics.counter "semimatch.annealing.accepted"
let c_rejected = Obs.Metrics.counter "semimatch.annealing.rejected"
let c_improved_best = Obs.Metrics.counter "semimatch.annealing.improved_best"

type params = { iterations : int; initial_temperature : float; cooling : float }

let default_params h =
  let nh = H.num_hyperedges h in
  let avg_sq =
    if nh = 0 then 1.0
    else begin
      let total = ref 0.0 in
      for e = 0 to nh - 1 do
        let w = H.h_weight h e in
        total := !total +. (w *. w)
      done;
      !total /. float_of_int nh
    end
  in
  { iterations = 20_000; initial_temperature = Float.max 1.0 avg_sq; cooling = 0.9995 }

(* [should_stop] is polled every [stop_poll_period] iterations so the
   Metropolis loop stays branch-cheap; stopping early just returns the
   best-seen assignment, which is always a valid result. *)
let stop_poll_period = 256

(* Temperature-epoch events every [epoch_period] iterations (~10 per run at
   the default budget): enough to reconstruct the cooling trajectory in the
   event log without weighing on the Metropolis loop. *)
let epoch_period = 2048

(* [at_best] counts the processors whose load is at or above the incumbent
   makespan [best].  Every load write goes through [set_load], the undo of a
   rejected move included, so the count stays exact even where undo does not
   restore a non-integer load bit for bit. *)
let[@inline] set_load (loads : float array) at_best ~(best : float) u l' =
  let l = loads.(u) in
  if l >= best then decr at_best;
  if l' >= best then incr at_best;
  loads.(u) <- l'

(* Energy bookkeeping: moving task v from e_old to e_new changes Σ l² only on
   the touched processors; each update of load l by δ changes the energy by
   2lδ + δ².  The move is applied first (-w_old on e_old's processors, then
   +w_new on e_new's, so overlapping processors see both) and [undo]ne if
   rejected.  Both are inlined into [refine], where the returned delta stays
   unboxed. *)
let[@inline] apply_move h loads at_best ~best ~e_old ~e_new =
  let delta = ref 0.0 in
  let w_old = h.H.w.(e_old) and w_new = h.H.w.(e_new) in
  for i = h.H.h_off.(e_old) to h.H.h_off.(e_old + 1) - 1 do
    let u = h.H.h_adj.(i) in
    let l = loads.(u) in
    delta := !delta -. (2.0 *. l *. w_old) +. (w_old *. w_old);
    set_load loads at_best ~best u (l -. w_old)
  done;
  for i = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
    let u = h.H.h_adj.(i) in
    let l = loads.(u) in
    delta := !delta +. (2.0 *. l *. w_new) +. (w_new *. w_new);
    set_load loads at_best ~best u (l +. w_new)
  done;
  !delta

let[@inline] undo h loads at_best ~best ~e_old ~e_new =
  for i = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
    let u = h.H.h_adj.(i) in
    set_load loads at_best ~best u (loads.(u) -. h.H.w.(e_new))
  done;
  for i = h.H.h_off.(e_old) to h.H.h_off.(e_old + 1) - 1 do
    let u = h.H.h_adj.(i) in
    set_load loads at_best ~best u (loads.(u) +. h.H.w.(e_old))
  done

let[@inline] makespan_of (loads : float array) =
  let m = ref 0.0 in
  for u = 0 to Array.length loads - 1 do
    if loads.(u) > !m then m := loads.(u)
  done;
  !m

let[@inline] count_at_or_above (loads : float array) best =
  let c = ref 0 in
  for u = 0 to Array.length loads - 1 do
    if loads.(u) >= best then incr c
  done;
  !c

let refine ?params ?(should_stop = fun () -> false) rng h start =
  let params = match params with Some p -> p | None -> default_params h in
  if params.iterations < 0 then invalid_arg "Annealing: negative iteration budget";
  if not (params.cooling > 0.0 && params.cooling <= 1.0) then
    invalid_arg "Annealing: cooling must be in (0, 1]";
  let n1 = h.H.n1 in
  let choice = Array.copy start.Hyp_assignment.choice in
  let loads = Hyp_assignment.loads h start in
  let best_choice = Array.copy choice in
  let best_makespan = ref (makespan_of loads) in
  let at_best = ref (count_at_or_above loads !best_makespan) in
  let temperature = ref params.initial_temperature in
  let accepted = ref 0 and rejected = ref 0 and improved = ref 0 in
  let draw_bound = max n1 1 in
  (try
  for iter = 1 to params.iterations do
    if iter land (stop_poll_period - 1) = 0 && should_stop () then raise Exit;
    if iter land (epoch_period - 1) = 0 && Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "annealing.epoch"
        [
          Obs.Events.int "iter" iter;
          Obs.Events.num "temperature" !temperature;
          Obs.Events.num "best_makespan" !best_makespan;
        ];
    let v = Randkit.Prng.int rng draw_bound in
    if n1 > 0 && H.task_degree h v > 1 then begin
      let e_old = choice.(v) in
      let e_new = h.H.task_off.(v) + Randkit.Prng.int rng (H.task_degree h v) in
      if e_new <> e_old then begin
        let best = !best_makespan in
        let delta = apply_move h loads at_best ~best ~e_old ~e_new in
        (* The uniform draw of [Prng.float rng 1.0], taken as an int so
           that it is not boxed where the call is not inlined. *)
        let accept =
          delta <= 0.0
          || !temperature > 0.0
             && Float.of_int (Randkit.Prng.bits53 rng) *. 0x1p-53 < exp (-.delta /. !temperature)
        in
        if accept then begin
          incr accepted;
          choice.(v) <- e_new;
          (* The makespan max(0, max load) beats the incumbent exactly
             when no load reaches it and it is positive. *)
          if !at_best = 0 && best > 0.0 then begin
            incr improved;
            best_makespan := makespan_of loads;
            at_best := count_at_or_above loads !best_makespan;
            Array.blit choice 0 best_choice 0 n1
          end
        end
        else begin
          incr rejected;
          undo h loads at_best ~best ~e_old ~e_new
        end
      end
    end;
    temperature := !temperature *. params.cooling
  done
  with Exit -> ());
  Obs.Metrics.add c_accepted !accepted;
  Obs.Metrics.add c_rejected !rejected;
  Obs.Metrics.add c_improved_best !improved;
  (* The tracked loads steer the search; the reported makespan is the
     returned schedule's own, which tracked non-integer loads can miss by
     rounding. *)
  let best = Hyp_assignment.of_choices h best_choice in
  (best, Hyp_assignment.makespan h best)

let solve ?params ?should_stop rng h =
  let start = Greedy_hyper.run Greedy_hyper.Sorted_greedy_hyp h in
  refine ?params ?should_stop rng h start
