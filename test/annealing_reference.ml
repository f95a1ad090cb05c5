(* [Annealing.refine] as it was while every accepted move rescanned all p
   loads for the makespan and every proposal bumped its telemetry counter,
   kept as the oracle for the library's version: on every instance, seed and
   parameter set the two must return the same choices and makespan, bit for
   bit, and add the same counter totals.  The code is verbatim but for the
   makespan it returns, which is the returned schedule's own, as the
   library's is; comments are left out. *)

module H = Hyper.Graph
module A = Semimatch.Annealing

let c_accepted = Obs.Metrics.counter "semimatch.annealing.accepted"
let c_rejected = Obs.Metrics.counter "semimatch.annealing.rejected"
let c_improved_best = Obs.Metrics.counter "semimatch.annealing.improved_best"
let stop_poll_period = 256
let epoch_period = 2048

let refine ?params ?(should_stop = fun () -> false) rng h start =
  let params = match params with Some p -> p | None -> A.default_params h in
  if params.A.iterations < 0 then invalid_arg "Annealing: negative iteration budget";
  if not (params.A.cooling > 0.0 && params.A.cooling <= 1.0) then
    invalid_arg "Annealing: cooling must be in (0, 1]";
  let n1 = h.H.n1 in
  let choice = Array.copy start.Semimatch.Hyp_assignment.choice in
  let loads = Semimatch.Hyp_assignment.loads h start in
  let makespan_of () =
    let m = ref 0.0 in
    for u = 0 to Array.length loads - 1 do
      if loads.(u) > !m then m := loads.(u)
    done;
    !m
  in
  let energy_delta ~e_old ~e_new =
    let delta = ref 0.0 in
    let w_old = h.H.w.(e_old) and w_new = h.H.w.(e_new) in
    for i = h.H.h_off.(e_old) to h.H.h_off.(e_old + 1) - 1 do
      let u = h.H.h_adj.(i) in
      let l = loads.(u) in
      delta := !delta -. (2.0 *. l *. w_old) +. (w_old *. w_old);
      loads.(u) <- l -. w_old
    done;
    for i = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
      let u = h.H.h_adj.(i) in
      let l = loads.(u) in
      delta := !delta +. (2.0 *. l *. w_new) +. (w_new *. w_new);
      loads.(u) <- l +. w_new
    done;
    !delta
  in
  let undo ~e_old ~e_new =
    for i = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
      let u = h.H.h_adj.(i) in
      loads.(u) <- loads.(u) -. h.H.w.(e_new)
    done;
    for i = h.H.h_off.(e_old) to h.H.h_off.(e_old + 1) - 1 do
      let u = h.H.h_adj.(i) in
      loads.(u) <- loads.(u) +. h.H.w.(e_old)
    done
  in
  let best_choice = Array.copy choice in
  let best_makespan = ref (makespan_of ()) in
  let temperature = ref params.A.initial_temperature in
  (try
     for iter = 1 to params.A.iterations do
       if iter land (stop_poll_period - 1) = 0 && should_stop () then raise Exit;
       if iter land (epoch_period - 1) = 0 && Obs.is_enabled () then
         Obs.Events.emit ~level:Obs.Events.Debug "annealing.epoch"
           [
             Obs.Events.int "iter" iter;
             Obs.Events.num "temperature" !temperature;
             Obs.Events.num "best_makespan" !best_makespan;
           ];
       let v = Randkit.Prng.int rng (max n1 1) in
       if n1 > 0 && H.task_degree h v > 1 then begin
         let e_old = choice.(v) in
         let e_new = h.H.task_off.(v) + Randkit.Prng.int rng (H.task_degree h v) in
         if e_new <> e_old then begin
           let delta = energy_delta ~e_old ~e_new in
           let accept =
             delta <= 0.0
             || (!temperature > 0.0 && Randkit.Prng.float rng 1.0 < exp (-.delta /. !temperature))
           in
           if accept then begin
             Obs.Metrics.incr c_accepted;
             choice.(v) <- e_new;
             let m = makespan_of () in
             if m < !best_makespan then begin
               Obs.Metrics.incr c_improved_best;
               best_makespan := m;
               Array.blit choice 0 best_choice 0 n1
             end
           end
           else begin
             Obs.Metrics.incr c_rejected;
             undo ~e_old ~e_new
           end
         end
       end;
       temperature := !temperature *. params.A.cooling
     done
   with Exit -> ());
  let best = Semimatch.Hyp_assignment.of_choices h best_choice in
  (best, Semimatch.Hyp_assignment.makespan h best)
