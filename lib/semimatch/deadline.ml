module H = Hyper.Graph

let c_degraded = Obs.Metrics.counter "semimatch.deadline.degraded"

type tier = Tier_greedy | Tier_portfolio | Tier_exact

let tier_name = function
  | Tier_greedy -> "greedy"
  | Tier_portfolio -> "portfolio"
  | Tier_exact -> "exact"

type result = {
  assignment : Hyp_assignment.t;
  makespan : float;
  tier : tier;
  degraded : bool;
  lower_bound : float;
  elapsed_s : float;
}

(* The exact tier only runs below this many configuration combinations —
   small enough that brute force is near-instant, and small enough that the
   portfolio alone already answers every instance where its result matters. *)
let exact_space_limit = 200_000

let search_space_small h =
  let space = ref 1 in
  (try
     for v = 0 to h.H.n1 - 1 do
       space := !space * H.task_degree h v;
       if !space > exact_space_limit || !space <= 0 then raise Exit
     done
   with Exit -> ());
  !space > 0 && !space <= exact_space_limit

let emit_tier tier makespan elapsed_s =
  if Obs.is_enabled () then
    Obs.Events.emit "deadline.tier"
      [
        Obs.Events.str "tier" (tier_name tier);
        Obs.Events.num "makespan" makespan;
        Obs.Events.num "elapsed_s" elapsed_s;
      ]

let solve ?jobs ~budget_s h =
  let start = Obs.Span.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Obs.Span.now_ns ()) start) *. 1e-9 in
  let remaining () = budget_s -. elapsed () in
  let lower_bound = Lower_bound.multiproc_refined h in
  (* Tier 1 — the floor.  SGH is the cheapest heuristic in the library and
     runs to completion whatever the budget, so there is always a feasible
     incumbent to hand back. *)
  let greedy_asg = Greedy_hyper.run Greedy_hyper.Sorted_greedy_hyp h in
  let greedy_m = Hyp_assignment.makespan h greedy_asg in
  emit_tier Tier_greedy greedy_m (elapsed ());
  let incumbent = ref (greedy_asg, greedy_m, Tier_greedy) in
  (* Tier 2 — the portfolio under the leftover wall clock.  Ties go to the
     portfolio so an undegraded run returns its bytes unchanged. *)
  let portfolio =
    if remaining () > 0.0 && greedy_m > lower_bound then begin
      let r = Portfolio.solve ?jobs ~timeout_s:(remaining ()) h in
      if r.Portfolio.best_makespan <= greedy_m then
        incumbent := (r.Portfolio.assignment, r.Portfolio.best_makespan, Tier_portfolio);
      emit_tier Tier_portfolio r.Portfolio.best_makespan (elapsed ());
      Some r
    end
    else None
  in
  (* Tier 3 — exact.  SINGLEPROC-UNIT instances (every configuration a
     singleton of weight 1) get the polynomial deadline search (bs-hk)
     whatever their size; everything else falls back to brute force on tiny
     instances with budget to spare.  The exact schedule is adopted only on
     a strictly smaller makespan, so that an undegraded run still returns
     the portfolio's bytes on ties; a load-vector-optimal engine would gain
     nothing here. *)
  let _, best_m, _ = !incumbent in
  if remaining () > 0.0 && best_m > lower_bound then begin
    match Hyper.Graph.to_bipartite h with
    | Some g when Bipartite.Graph.is_unit_weighted g ->
        let s = Exact_unit.solve g in
        let m = float_of_int s.Exact_unit.makespan in
        if m < best_m then begin
          (* to_bipartite's contract: bipartite edge index = hyperedge
             index, so the bipartite choice is directly the hyperedge
             choice. *)
          let choice = Array.copy s.Exact_unit.assignment.Bip_assignment.edge in
          incumbent := (Hyp_assignment.of_choices h choice, m, Tier_exact)
        end;
        if Obs.is_enabled () then
          Obs.Events.emit "deadline.exact_engine"
            [ Obs.Events.str "engine" (Exact_unit.exact_engine_name Exact_unit.default_engine) ];
        emit_tier Tier_exact m (elapsed ())
    | _ ->
        if search_space_small h then begin
          let m, asg = Brute_force.multiproc h in
          if m <= best_m then incumbent := (asg, m, Tier_exact);
          emit_tier Tier_exact m (elapsed ())
        end
  end;
  let assignment, makespan, tier = !incumbent in
  (* Degraded: the budget cut off work that could still have improved the
     schedule — the portfolio never started, or some of its solvers were
     skipped while the incumbent sat above the lower bound. *)
  let degraded =
    makespan > lower_bound
    &&
    match portfolio with
    | None -> true
    | Some r ->
        List.exists (fun o -> o.Portfolio.o_makespan = None) r.Portfolio.outcomes
  in
  if degraded then begin
    Obs.Metrics.incr c_degraded;
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Warn "deadline.degraded"
        [
          Obs.Events.str "tier" (tier_name tier);
          Obs.Events.num "budget_s" budget_s;
          Obs.Events.num "makespan" makespan;
          Obs.Events.num "lower_bound" lower_bound;
        ]
  end;
  { assignment; makespan; tier; degraded; lower_bound; elapsed_s = elapsed () }

type delta = {
  d_choice : int array;
  d_makespan : float;
  d_lower_bound : float;
  d_tier : tier;
  d_degraded : bool;
  d_elapsed_s : float;
}

let solve_surviving ?jobs ~dead ~budget_s h =
  let start = Obs.Span.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Obs.Span.now_ns ()) start) *. 1e-9 in
  let choice, res =
    Repair.solve_survivors ~dead h (fun sub ->
        let r = solve ?jobs ~budget_s sub in
        (r.assignment, r))
  in
  match res with
  | None ->
      {
        d_choice = choice;
        d_makespan = 0.0;
        d_lower_bound = 0.0;
        d_tier = Tier_greedy;
        d_degraded = false;
        d_elapsed_s = elapsed ();
      }
  | Some r ->
      {
        d_choice = choice;
        d_makespan = r.makespan;
        d_lower_bound = r.lower_bound;
        d_tier = r.tier;
        d_degraded = r.degraded;
        d_elapsed_s = elapsed ();
      }
