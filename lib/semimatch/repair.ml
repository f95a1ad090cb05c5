module H = Hyper.Graph

let c_affected = Obs.Metrics.counter "semimatch.repair.affected"
let c_moved = Obs.Metrics.counter "semimatch.repair.moved"
let c_infeasible = Obs.Metrics.counter "semimatch.repair.infeasible"
let c_placed = Obs.Metrics.counter "semimatch.repair.placed"

type t = {
  choice : int array;
  affected : int list;
  moved : int list;
  infeasible : int list;
  makespan : float;
  lower_bound : float;
  resolved_from_scratch : bool;
}

let default_cost _u load = load

(* Passes of the restricted local search. *)
let max_passes = 8

let edge_alive h dead e =
  let ok = ref true in
  H.iter_h_procs h e (fun u -> if dead.(u) then ok := false);
  !ok

(* Surviving configurations of a task, in input order (the greedy tie-break
   discipline of the rest of the library). *)
let surviving_edges h dead v =
  let acc = ref [] in
  H.iter_task_hyperedges h v (fun e -> if edge_alive h dead e then acc := e :: !acc);
  List.rev !acc

let check_args h dead =
  if Array.length dead <> h.H.n2 then
    invalid_arg "Repair: dead must have one slot per processor"

(* Effective makespan of a load vector under the caller's cost model.  Dead
   processors carry no load by construction, and [cost u 0. = 0.], so the
   fold is safe over the whole machine. *)
let eff_makespan cost loads =
  let m = ref 0.0 in
  Array.iteri (fun u l -> if l > 0.0 then m := Float.max !m (cost u l)) loads;
  !m

let eff_metric cost loads =
  let mx = ref 0.0 and sq = ref 0.0 in
  Array.iteri
    (fun u l ->
      if l > 0.0 then begin
        let c = cost u l in
        mx := Float.max !mx c;
        sq := !sq +. (c *. c)
      end)
    loads;
  (!mx, !sq)

let add_edge h loads e sign =
  let w = sign *. H.h_weight h e in
  H.iter_h_procs h e (fun u -> loads.(u) <- loads.(u) +. w)

(* The surviving machine as a standalone instance: the tasks that keep a
   configuration free of dead processors (ascending), their surviving
   configurations in input order, the surviving processors renumbered
   densely; [None] when no task survives (configurations are never empty,
   so then no processor is needed either).  [task_of] / [orig_edge]
   translate a sub-solution back: [Graph.build] keeps a task's hyperedges
   in insertion order, so the k-th sub-edge of sub-task [i] is
   [orig_edge.(i).(k)]. *)
type survivor = {
  sub : H.t;
  task_of : int array;  (* sub task id -> original task id *)
  orig_edge : int array array;  (* per sub task, k-th surviving edge's original id *)
}

let surviving_machine h dead =
  check_args h dead;
  let proc_of = Array.make h.H.n2 (-1) in
  let n_surv = ref 0 in
  Array.iteri
    (fun u d ->
      if not d then begin
        proc_of.(u) <- !n_surv;
        incr n_surv
      end)
    dead;
  let edges = Array.init h.H.n1 (fun v -> Array.of_list (surviving_edges h dead v)) in
  let task_of = List.filter (fun v -> edges.(v) <> [||]) (List.init h.H.n1 Fun.id) in
  if task_of = [] then None
  else begin
    let task_of = Array.of_list task_of in
    let orig_edge = Array.map (fun v -> edges.(v)) task_of in
    let n1 = Array.length task_of in
    let hyperedges = Array.fold_left (fun acc es -> acc + Array.length es) 0 orig_edge in
    let pins = Array.fold_left (Array.fold_left (fun acc e -> acc + H.h_size h e)) 0 orig_edge in
    let b = H.builder ~n1 ~n2:!n_surv ~hyperedges ~pins in
    Array.iteri
      (fun i edges ->
        Array.iter
          (fun e ->
            H.iter_h_procs h e (fun u -> H.add_pin b proc_of.(u));
            H.end_hyperedge b ~task:i ~weight:(H.h_weight h e))
          edges)
      orig_edge;
    Some { sub = H.build b; task_of; orig_edge }
  end

let solve_survivors ~dead h solve =
  let choice = Array.make h.H.n1 (-1) in
  match surviving_machine h dead with
  | None -> (choice, None)
  | Some s ->
      let asg, x = solve s.sub in
      Array.iteri
        (fun i e -> choice.(s.task_of.(i)) <- s.orig_edge.(i).(e - s.sub.H.task_off.(i)))
        asg.Hyp_assignment.choice;
      (choice, Some x)

let lower_bound ~dead h =
  match surviving_machine h dead with
  | None -> 0.0
  | Some s -> Lower_bound.multiproc_refined s.sub

let loads_of_choice h choice =
  let loads = Array.make h.H.n2 0.0 in
  Array.iter (fun e -> if e >= 0 then add_edge h loads e 1.0) choice;
  loads

(* Greedy re-insertion: fewest surviving options first (ties by task id),
   each task onto the configuration with the cheapest resulting bottleneck
   among its own processors (ties by input order). *)
let reinsert h cost loads tasks_edges =
  let order =
    List.sort
      (fun (v1, es1) (v2, es2) ->
        match compare (List.length es1) (List.length es2) with
        | 0 -> compare v1 v2
        | c -> c)
      tasks_edges
  in
  List.map
    (fun (v, edges) ->
      let best = ref (-1) and best_cost = ref infinity in
      List.iter
        (fun e ->
          let w = H.h_weight h e in
          let bottleneck = ref 0.0 in
          H.iter_h_procs h e (fun u ->
              bottleneck := Float.max !bottleneck (cost u (loads.(u) +. w)));
          if !bottleneck < !best_cost then begin
            best_cost := !bottleneck;
            best := e
          end)
        edges;
      add_edge h loads !best 1.0;
      (v, !best))
    order

(* Warm-started local search restricted to the re-placed tasks: try every
   surviving configuration of each, accept a switch only on strict
   lexicographic improvement of (max effective load, Σ cost²). *)
let restricted_search h dead cost loads choice tasks =
  let improved = ref true and passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    List.iter
      (fun v ->
        let cur = choice.(v) in
        let cur_metric = eff_metric cost loads in
        let best_e = ref cur and best_metric = ref cur_metric in
        List.iter
          (fun e ->
            if e <> cur then begin
              add_edge h loads cur (-1.0);
              add_edge h loads e 1.0;
              let m = eff_metric cost loads in
              add_edge h loads e (-1.0);
              add_edge h loads cur 1.0;
              if compare m !best_metric < 0 then begin
                best_metric := m;
                best_e := e
              end
            end)
          (surviving_edges h dead v);
        if !best_e <> cur then begin
          add_edge h loads cur (-1.0);
          add_edge h loads !best_e 1.0;
          choice.(v) <- !best_e;
          improved := true
        end)
      tasks
  done

(* The one placement core: greedy re-insertion of [to_place] (each task
   with its surviving configurations) onto [loads], then the restricted
   search over those tasks.  Updates [choice] and [loads] in place. *)
let settle h dead cost loads choice to_place =
  let placed = reinsert h cost loads to_place in
  List.iter (fun (v, e) -> choice.(v) <- e) placed;
  restricted_search h dead cost loads choice (List.map fst placed)

let place ~dead ~loads h =
  check_args h dead;
  if Array.length loads <> h.H.n2 then
    invalid_arg "Repair.place: loads must have one slot per processor";
  let to_place = ref [] in
  for v = h.H.n1 - 1 downto 0 do
    match surviving_edges h dead v with
    | [] -> ()
    | edges -> to_place := (v, edges) :: !to_place
  done;
  let choice = Array.make h.H.n1 (-1) in
  settle h dead default_cost (Array.copy loads) choice !to_place;
  let placed = List.length !to_place in
  (* Every task of [h] starts unplaced, so each placement is a move. *)
  Obs.Metrics.add c_placed placed;
  Obs.Metrics.add c_moved placed;
  if Obs.is_enabled () then
    Obs.Events.emit "repair.place"
      [
        Obs.Events.int "tasks" h.H.n1;
        Obs.Events.int "placed" placed;
        Obs.Events.int "infeasible" (h.H.n1 - placed);
      ];
  choice

let finish h cost ~affected ~infeasible ~lower_bound ~resolved_from_scratch old_choice choice =
  let moved = ref [] in
  Array.iteri
    (fun v e ->
      let was = match old_choice with None -> -1 | Some old -> old.(v) in
      if e >= 0 && e <> was then moved := v :: !moved)
    choice;
  let moved = List.rev !moved in
  Obs.Metrics.add c_moved (List.length moved);
  {
    choice;
    affected;
    moved;
    infeasible;
    makespan = eff_makespan cost (loads_of_choice h choice);
    lower_bound;
    resolved_from_scratch;
  }

let resolve ?(cost = default_cost) ~dead h =
  let choice, lower_bound =
    solve_survivors ~dead h (fun sub ->
        ( Greedy_hyper.run Greedy_hyper.Expected_vector_greedy_hyp sub,
          Lower_bound.multiproc_refined sub ))
  in
  (* The surviving machine schedules every task that has a surviving
     configuration, so the unscheduled ones are exactly the infeasible. *)
  let feasible, infeasible = List.partition (fun v -> choice.(v) >= 0) (List.init h.H.n1 Fun.id) in
  finish h cost ~affected:feasible ~infeasible
    ~lower_bound:(Option.value lower_bound ~default:0.0)
    ~resolved_from_scratch:true None choice

let repair ?(cost = default_cost) ~dead h (a : Hyp_assignment.t) =
  check_args h dead;
  if not (Hyp_assignment.is_valid h a) then invalid_arg "Repair.repair: invalid assignment";
  let old = a.Hyp_assignment.choice in
  (* Partition the tasks: affected ones sit on a dead processor; of those,
     the feasible ones have some surviving configuration to move to. *)
  let affected = ref [] and infeasible = ref [] and to_place = ref [] in
  for v = h.H.n1 - 1 downto 0 do
    if not (edge_alive h dead old.(v)) then begin
      affected := v :: !affected;
      match surviving_edges h dead v with
      | [] -> infeasible := v :: !infeasible
      | edges -> to_place := (v, edges) :: !to_place
    end
  done;
  let affected = !affected and infeasible = !infeasible in
  Obs.Metrics.add c_affected (List.length affected);
  Obs.Metrics.add c_infeasible (List.length infeasible);
  if Obs.is_enabled () then begin
    Obs.Events.emit "repair.start"
      [
        Obs.Events.int "affected" (List.length affected);
        Obs.Events.int "infeasible" (List.length infeasible);
      ];
    if infeasible <> [] then
      Obs.Events.emit ~level:Obs.Events.Warn "repair.infeasible"
        [ Obs.Events.int "tasks" (List.length infeasible) ]
  end;
  (* Incremental candidate: keep the unaffected placements, settle the
     displaced tasks onto the loads of the rest. *)
  let choice = Array.copy old in
  List.iter (fun v -> choice.(v) <- -1) affected;
  let loads = loads_of_choice h choice in
  settle h dead cost loads choice !to_place;
  let incremental = eff_makespan cost loads in
  (* Safety net: the from-scratch re-solve on the surviving machine.  Repair
     must never lose to it, so take whichever schedule prices better. *)
  let scratch = resolve ~cost ~dead h in
  let resolved_from_scratch = scratch.makespan < incremental in
  let final =
    finish h cost ~affected ~infeasible ~lower_bound:scratch.lower_bound ~resolved_from_scratch
      (Some old)
      (if resolved_from_scratch then scratch.choice else choice)
  in
  if Obs.is_enabled () then
    Obs.Events.emit "repair.done"
      [
        Obs.Events.num "makespan" final.makespan;
        Obs.Events.int "moved" (List.length final.moved);
        Obs.Events.bool "resolved_from_scratch" final.resolved_from_scratch;
        Obs.Events.num "lower_bound" final.lower_bound;
      ];
  final
