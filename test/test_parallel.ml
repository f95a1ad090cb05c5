module Pool = Parpool.Pool
module Cancel = Parpool.Cancel

let check = Alcotest.(check bool)

let test_empty () = Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 ~f:(fun x -> x) [||])

let test_identity_order () =
  let items = Array.init 1000 Fun.id in
  let out = Pool.map ~jobs:4 ~f:(fun x -> x * x) items in
  Alcotest.(check (array int)) "order preserved" (Array.map (fun x -> x * x) items) out

let test_matches_sequential () =
  let items = Array.init 200 (fun i -> i + 1) in
  let f x = (x * 31) mod 97 in
  Alcotest.(check (array int)) "parallel = sequential" (Pool.map ~jobs:1 ~f items)
    (Pool.map ~jobs:3 ~f items)

let test_exception_propagates () =
  let items = Array.init 50 Fun.id in
  match Pool.map ~jobs:4 ~f:(fun x -> if x = 17 then failwith "boom" else x) items with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exception"

let test_first_exception_in_order () =
  let items = Array.init 50 Fun.id in
  match
    Pool.map ~jobs:4
      ~f:(fun x -> if x = 40 then failwith "late" else if x = 10 then failwith "early" else x)
      items
  with
  | exception Failure msg -> Alcotest.(check string) "earliest item wins" "early" msg
  | _ -> Alcotest.fail "expected exception"

let test_jobs_validation () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.map: jobs must be positive") (fun () ->
      ignore (Pool.map ~jobs:0 ~f:Fun.id [| 1 |]))

let test_map_list () =
  Alcotest.(check (list int)) "list wrapper" [ 2; 4; 6 ] (Pool.map_list ~jobs:2 ~f:(( * ) 2) [ 1; 2; 3 ])

let test_experiment_results_identical_across_jobs () =
  (* Quality numbers must be identical whatever the parallelism. *)
  let tiny =
    {
      Experiments.Instances.name = "POOL-MP";
      family = Hyper.Generate.Fewg_manyg;
      n = 80;
      p = 16;
      dv = 2;
      dh = 3;
      g = 4;
    }
  in
  let strip row =
    List.map (fun r -> (r.Experiments.Runner.algo, r.Experiments.Runner.ratio))
      row.Experiments.Runner.results
  in
  let sequential = Experiments.Runner.run_row ~seeds:2 ~weights:Hyper.Weights.Unit tiny in
  let via_pool =
    Pool.map ~jobs:2
      ~f:(fun spec -> Experiments.Runner.run_row ~seeds:2 ~weights:Hyper.Weights.Unit spec)
      [| tiny; tiny |]
  in
  Array.iter
    (fun row -> check "identical ratios" true (strip row = strip sequential))
    via_pool

let test_early_failure_drains () =
  (* A failure must skip the remaining work, not run the batch to completion
     before re-raising: with the failure up front, the vast majority of the
     1000 tasks are never executed.  The bound is loose (a few tasks may
     already be running on other participants before the token trips) but
     far below the full batch, and the test also proves the pool neither
     hangs nor loses the original exception. *)
  let executed = Atomic.make 0 in
  let items = Array.init 1000 Fun.id in
  (match
     Pool.map ~jobs:4
       ~f:(fun x ->
         Atomic.incr executed;
         if x = 0 then failwith "first";
         x)
       items
   with
  | exception Failure msg -> Alcotest.(check string) "original exception" "first" msg
  | _ -> Alcotest.fail "expected exception");
  let ran = Atomic.get executed in
  check "skipped most of the batch" true (ran < 900)

let test_map_cancelled_token () =
  let token = Cancel.create () in
  Cancel.cancel token;
  Alcotest.check_raises "tripped before start" Cancel.Cancelled (fun () ->
      ignore (Pool.map ~cancel:token ~jobs:2 ~f:Fun.id (Array.init 10 Fun.id)))

let test_map_timeout () =
  (* A microscopic deadline trips between items; Cancelled must surface
     rather than a partial result. *)
  let token = Cancel.create ~timeout_s:1e-6 () in
  match
    Pool.map ~cancel:token ~jobs:1
      ~f:(fun x ->
        ignore (Sys.opaque_identity (Hashtbl.hash x));
        Unix.sleepf 0.002;
        x)
      (Array.init 50 Fun.id)
  with
  | exception Cancel.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled"

let test_cancel_deadline () =
  let t = Cancel.create ~timeout_s:1e-9 () in
  Unix.sleepf 0.002;
  check "deadline passed" true (Cancel.is_cancelled t);
  check "never is inert" false (Cancel.is_cancelled Cancel.never);
  Cancel.cancel Cancel.never;
  check "never cannot trip" false (Cancel.is_cancelled Cancel.never);
  (* A deadline past the clock's range is no deadline, not one that wrapped
     into the past. *)
  List.iter
    (fun s ->
      let t = Cancel.create ~timeout_s:s () in
      check (Printf.sprintf "timeout %g not tripped" s) false (Cancel.is_cancelled t);
      Cancel.cancel t;
      check (Printf.sprintf "timeout %g still cancellable" s) true (Cancel.is_cancelled t))
    [ 1e10; infinity ]

let test_past_deadline_runs_nothing () =
  (* A deadline already in the past must cancel the batch before any task
     starts: zero executions, not one-then-stop. *)
  let token = Cancel.create ~timeout_s:1e-9 () in
  let deadline = Unix.gettimeofday () +. 0.002 in
  while Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  check "token already tripped" true (Cancel.is_cancelled token);
  let executed = Atomic.make 0 in
  Pool.run ~cancel:token ~jobs:2 (Array.init 50 (fun _ () -> Atomic.incr executed));
  Alcotest.(check int) "no task started" 0 (Atomic.get executed)

exception Raised_at of int

(* The batch contract over sizes around the job count (n = 0, n < jobs) and
   failures at arbitrary indices: with no failure, map is Array.map and every
   task ran exactly once; otherwise the smallest failing index wins. *)
let prop_map_contract =
  QCheck.Test.make ~count:300 ~name:"map contract over sizes, jobs and failures"
    QCheck.(triple (int_range 0 64) (int_range 1 6) (small_list (int_range 0 63)))
    (fun (n, jobs, raising) ->
      let raising = List.filter (fun i -> i < n) raising in
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      let f i =
        Atomic.incr ran.(i);
        if List.mem i raising then raise (Raised_at i);
        (i * 31) + 7
      in
      let items = Array.init n Fun.id in
      match (raising, Pool.map ~jobs ~f items) with
      | [], out ->
          out = Array.map (fun i -> (i * 31) + 7) items
          && Array.for_all (fun c -> Atomic.get c = 1) ran
      | _ :: _, _ -> false
      | exception Raised_at i -> raising <> [] && i = List.fold_left min max_int raising)

let test_helpers_joined () =
  (* Every helper has exited by the time its batch returns.  A helper leaked
     per batch would also reach the runtime's 128-domain limit within about
     43 batches of three helpers. *)
  let started = Atomic.make 0 and exited = Atomic.make 0 in
  let registered = Domain.DLS.new_key (fun () -> false) in
  for round = 1 to 200 do
    let out =
      Pool.map ~jobs:4
        ~f:(fun x ->
          if not (Domain.is_main_domain () || Domain.DLS.get registered) then begin
            Domain.DLS.set registered true;
            Atomic.incr started;
            Domain.at_exit (fun () -> Atomic.incr exited)
          end;
          x + round)
        (Array.init 8 Fun.id)
    in
    Alcotest.(check (array int)) "batch result" (Array.init 8 (fun i -> i + round)) out;
    Alcotest.(check int) "helpers exited" (Atomic.get started) (Atomic.get exited)
  done

let suite =
  [
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "order preserved" `Quick test_identity_order;
    Alcotest.test_case "parallel = sequential" `Quick test_matches_sequential;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "first exception in item order" `Quick test_first_exception_in_order;
    Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
    Alcotest.test_case "list wrapper" `Quick test_map_list;
    Alcotest.test_case "experiments identical across jobs" `Quick
      test_experiment_results_identical_across_jobs;
    Alcotest.test_case "early failure drains promptly" `Quick test_early_failure_drains;
    Alcotest.test_case "map on a cancelled token" `Quick test_map_cancelled_token;
    Alcotest.test_case "map timeout" `Quick test_map_timeout;
    Alcotest.test_case "cancel deadlines" `Quick test_cancel_deadline;
    Alcotest.test_case "past deadline runs nothing" `Quick test_past_deadline_runs_nothing;
    QCheck_alcotest.to_alcotest prop_map_contract;
    Alcotest.test_case "helpers never outlive their batch" `Quick test_helpers_joined;
  ]
