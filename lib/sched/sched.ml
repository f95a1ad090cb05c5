type config = { procs : string list; time : float }
type task_spec = { task_name : string; configs : config list }

type instance = {
  proc_names : string array;
  task_names : string array;
  hyper : Hyper.Graph.t;
}

let config procs ~time = { procs; time }
let task task_name configs = { task_name; configs }

let check_distinct what names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then invalid_arg (Printf.sprintf "Sched: duplicate %s %S" what n);
      Hashtbl.add tbl n ())
    names

let instance ~processors ~tasks =
  check_distinct "processor" processors;
  check_distinct "task" (List.map (fun t -> t.task_name) tasks);
  let proc_names = Array.of_list processors in
  let proc_id = Hashtbl.create (Array.length proc_names) in
  Array.iteri (fun i n -> Hashtbl.add proc_id n i) proc_names;
  let task_names = Array.of_list (List.map (fun t -> t.task_name) tasks) in
  let hyperedges = ref [] in
  List.iteri
    (fun v t ->
      if t.configs = [] then
        invalid_arg (Printf.sprintf "Sched: task %S has no configuration" t.task_name);
      List.iter
        (fun c ->
          if not (c.time > 0.0) then
            invalid_arg (Printf.sprintf "Sched: task %S has a non-positive time" t.task_name);
          let ids =
            List.map
              (fun name ->
                match Hashtbl.find_opt proc_id name with
                | Some id -> id
                | None ->
                    invalid_arg
                      (Printf.sprintf "Sched: task %S references unknown processor %S"
                         t.task_name name))
              c.procs
          in
          if ids = [] then
            invalid_arg (Printf.sprintf "Sched: task %S has an empty configuration" t.task_name);
          hyperedges := (v, Array.of_list ids, c.time) :: !hyperedges)
        t.configs)
    tasks;
  let hyper =
    Hyper.Graph.create ~n1:(Array.length task_names) ~n2:(Array.length proc_names)
      ~hyperedges:(List.rev !hyperedges)
  in
  { proc_names; task_names; hyper }

let num_tasks t = Array.length t.task_names
let num_processors t = Array.length t.proc_names
let hypergraph t = t.hyper

type algorithm =
  | Greedy of Semimatch.Greedy_hyper.algorithm
  | Greedy_refined of Semimatch.Greedy_hyper.algorithm
  | Exact_unit_sequential

let default_algorithm = Greedy Semimatch.Greedy_hyper.Expected_vector_greedy_hyp

let algorithm_name = function
  | Greedy a -> Semimatch.Greedy_hyper.name a
  | Greedy_refined a -> Semimatch.Greedy_hyper.name a ^ "+local-search"
  | Exact_unit_sequential -> "exact-singleproc-unit"

type schedule = {
  makespan : float;
  assignment : (string * string list * float) list;
  processor_loads : (string * float) list;
  lower_bound : float;
}

let schedule_of_choices t choices =
  let h = t.hyper in
  let a = Semimatch.Hyp_assignment.of_choices h choices in
  let loads = Semimatch.Hyp_assignment.loads h a in
  let assignment =
    List.init (num_tasks t) (fun v ->
        let e = choices.(v) in
        let procs = Hyper.Graph.h_procs h e in
        ( t.task_names.(v),
          Array.to_list (Array.map (fun u -> t.proc_names.(u)) procs),
          Hyper.Graph.h_weight h e ))
  in
  {
    makespan = Semimatch.Hyp_assignment.makespan h a;
    assignment;
    processor_loads = List.init (num_processors t) (fun u -> (t.proc_names.(u), loads.(u)));
    lower_bound = Semimatch.Lower_bound.multiproc h;
  }

let solve ?(algorithm = default_algorithm) ?deadline_s t =
  match deadline_s with
  | Some budget_s ->
      (* A wall-clock budget turns solving over to the graceful-degradation
         cascade: always a feasible schedule, best effort within budget. *)
      let r = Semimatch.Deadline.solve ~budget_s t.hyper in
      schedule_of_choices t r.Semimatch.Deadline.assignment.Semimatch.Hyp_assignment.choice
  | None -> (
      match algorithm with
  | Greedy a ->
      let result = Semimatch.Greedy_hyper.run a t.hyper in
      schedule_of_choices t result.Semimatch.Hyp_assignment.choice
  | Greedy_refined a ->
      let rough = Semimatch.Greedy_hyper.run a t.hyper in
      let refined, _moves = Semimatch.Local_search.refine t.hyper rough in
      schedule_of_choices t refined.Semimatch.Hyp_assignment.choice
  | Exact_unit_sequential -> (
      match Semimatch.Exact_unit.of_hypergraph t.hyper with
      | None ->
          invalid_arg
            "Sched.solve: Exact_unit_sequential needs single-processor unit-time configurations"
      | Some g ->
          let s = Semimatch.Exact_unit.solve g in
          (* Bipartite edge order mirrors hyperedge order, so edge ids are
             hyperedge ids. *)
          schedule_of_choices t s.Semimatch.Exact_unit.assignment.Semimatch.Bip_assignment.edge))

let pp_schedule ppf s =
  Format.fprintf ppf "@[<v>makespan: %g  (lower bound %.3g)@," s.makespan s.lower_bound;
  Format.fprintf ppf "tasks:@,";
  List.iter
    (fun (name, procs, time) ->
      Format.fprintf ppf "  %-16s -> {%s}  time %g@," name (String.concat ", " procs) time)
    s.assignment;
  Format.fprintf ppf "processor loads:@,";
  List.iter (fun (name, l) -> Format.fprintf ppf "  %-16s %g@," name l) s.processor_loads;
  Format.fprintf ppf "@]"
