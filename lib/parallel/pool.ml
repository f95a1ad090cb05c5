(* Telemetry probes (all free when Obs is disabled): batch and task volume as
   counters, submit/execute as spans.  Task [i] of a batch carries flow id
   [flow_base + i] on both its submit instant and its execution span, which
   is what lets Obs.Trace draw the arrow from the submitting domain's track
   to the (possibly different) executing one. *)
let c_batches = Obs.Metrics.counter "parallel.pool.batches"
let c_tasks = Obs.Metrics.counter "parallel.pool.tasks"

(* Keep the smallest-index failure, whoever records last. *)
let record_min slot i e =
  let rec go () =
    let cur = Atomic.get slot in
    match cur with
    | Some (j, _) when j <= i -> ()
    | _ -> if not (Atomic.compare_and_set slot cur (Some (i, e))) then go ()
  in
  go ()

let run ~jobs tasks =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be positive";
  let n = Array.length tasks in
  if n > 0 then begin
    (* Submit probe: one span covering the batch's publication (spawning its
       helpers), one flow-start instant per task inside it.  [new_flows] is
       only consulted when telemetry is on, so untraced batches stay
       allocation-free. *)
    let flow_base = if Obs.is_enabled () then Obs.Span.new_flows n else 0 in
    let submit = Obs.Span.enter "pool.submit" in
    if flow_base <> 0 then
      for i = 0 to n - 1 do
        Obs.Span.instant ~flow:(flow_base + i) "pool.submit.task"
      done;
    Obs.Metrics.incr c_batches;
    Obs.Metrics.add c_tasks n;
    let next = Atomic.make 0 in
    let internal = Cancel.create () in
    let fail = Atomic.make None in
    (* Every participant takes the next index until the batch runs out, so
       tasks are claimed in ascending index order.  Once a task raised, the
       rest are claimed and skipped. *)
    let rec participate () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if not (Cancel.is_cancelled internal) then
          (* The depth guard bounds span-nesting drift at the task boundary:
             a task that leaks a span cannot skew the depths recorded by
             every later task on this participant (see Obs.Span.reset's
             contract). *)
          Obs.Span.with_depth_guard (fun () ->
              let sp =
                Obs.Span.enter ~flow:(if flow_base = 0 then 0 else flow_base + i) "pool.task"
              in
              (try tasks.(i) ()
               with e ->
                 record_min fail i e;
                 Cancel.cancel internal);
              Obs.Span.exit sp);
        participate ()
      end
    in
    (* A spawn that fails (the runtime's domain limit) ends spawning: the
       participants already running finish the batch, so [jobs] caps the
       parallelism rather than promising it. *)
    let rec spawn k helpers =
      if k = 0 then helpers
      else
        match Domain.spawn participate with
        | d -> spawn (k - 1) (d :: helpers)
        | exception Failure _ -> helpers
    in
    let helpers = spawn (min jobs n - 1) [] in
    Obs.Span.exit submit;
    participate ();
    List.iter Domain.join helpers;
    match Atomic.get fail with Some (_, e) -> raise e | None -> ()
  end

let map ?jobs ~f items =
  let jobs = match jobs with Some j -> j | None -> Domain.recommended_domain_count () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be positive";
  let results = Array.make (Array.length items) None in
  run ~jobs (Array.mapi (fun i x () -> results.(i) <- Some (f x)) items);
  (* No task raised (run would have), so every slot is filled. *)
  Array.map Option.get results

let map_list ?jobs ~f items = Array.to_list (map ?jobs ~f (Array.of_list items))
