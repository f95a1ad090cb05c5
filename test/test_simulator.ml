module H = Hyper.Graph
module Sim = Simulator
module Ha = Semimatch.Hyp_assignment

let check = Alcotest.(check bool)

let toy () =
  (* Two tasks: T0 on {P0,P1} with parts of 2, T1 on {P1} with a part of 3. *)
  let h =
    H.create ~n1:2 ~n2:2 ~hyperedges:[ (0, [| 0; 1 |], 2.0); (1, [| 1 |], 3.0) ]
  in
  (h, Ha.of_choices h [| 0; 1 |])

let test_toy_semantics () =
  let h, a = toy () in
  let t = Sim.run h a in
  (* P0 runs T0's part [0,2); P1 runs T0's part [0,2) then T1's [2,5). *)
  Alcotest.(check (float 1e-9)) "makespan" 5.0 t.Sim.makespan;
  Alcotest.(check (float 1e-9)) "P0 busy" 2.0 t.Sim.proc_busy.(0);
  Alcotest.(check (float 1e-9)) "P1 busy" 5.0 t.Sim.proc_busy.(1);
  Alcotest.(check (float 1e-9)) "T0 completes at 2" 2.0 t.Sim.task_completion.(0);
  Alcotest.(check (float 1e-9)) "T1 completes at 5" 5.0 t.Sim.task_completion.(1);
  Alcotest.(check int) "three part events" 3 (List.length t.Sim.events)

let test_policy_changes_completions_not_makespan () =
  let h, a = toy () in
  let fifo = Sim.run ~policy:Sim.Fifo h a in
  let lpt = Sim.run ~policy:Sim.Lpt h a in
  Alcotest.(check (float 1e-9)) "same makespan" fifo.Sim.makespan lpt.Sim.makespan;
  (* Under LPT, P1 runs T1 first: T0 then completes at 5, T1 at 3. *)
  Alcotest.(check (float 1e-9)) "T1 first under LPT" 3.0 lpt.Sim.task_completion.(1);
  Alcotest.(check (float 1e-9)) "T0 delayed under LPT" 5.0 lpt.Sim.task_completion.(0)

let test_average_completion () =
  let h, a = toy () in
  let t = Sim.run h a in
  Alcotest.(check (float 1e-9)) "avg" 3.5 (Sim.average_completion t)

let random_instance ?(real_weights = false) seed =
  let rng = Randkit.Prng.create ~seed in
  let n1 = 2 + Randkit.Prng.int rng 30 and n2 = 1 + Randkit.Prng.int rng 8 in
  let hyperedges = ref [] in
  for v = 0 to n1 - 1 do
    let configs = 1 + Randkit.Prng.int rng 3 in
    for _ = 1 to configs do
      let size = 1 + Randkit.Prng.int rng (min 3 n2) in
      let procs = Randkit.Prng.sample_without_replacement rng ~k:size ~n:n2 in
      let w =
        if real_weights then 0.5 +. Randkit.Prng.float rng 4.5
        else float_of_int (1 + Randkit.Prng.int rng 5)
      in
      hyperedges := (v, procs, w) :: !hyperedges
    done
  done;
  H.create ~n1 ~n2 ~hyperedges:(List.rev !hyperedges)

(* The execution model of Sec. II, checked against the schedule itself
   rather than against a second simulator: processor [u] runs one part of
   every task whose realized configuration holds [u], of that
   configuration's weight, one part after another from time 0, in the
   policy's order of the task-ordered queue. *)
let policy_order policy parts =
  let a = Array.of_list parts in
  (match policy with
  | Sim.Fifo -> ()
  | Sim.Spt -> Array.stable_sort (fun (_, x) (_, y) -> compare x y) a
  | Sim.Lpt -> Array.stable_sort (fun (_, x) (_, y) -> compare y x) a
  | Sim.Random_order seed -> Randkit.Prng.shuffle_in_place (Randkit.Prng.create ~seed) a);
  Array.to_list a

let execution_model_prop =
  QCheck.Test.make
    ~name:"parts run back to back in policy order; busy = loads; completion = last part"
    ~count:200
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance ~real_weights:(seed mod 2 = 1) seed in
      let algo = List.nth Semimatch.Greedy_hyper.all (seed / 2 mod 4) in
      let a = Semimatch.Greedy_hyper.run algo h in
      let loads = Ha.loads h a in
      let max_load = Array.fold_left Float.max 0.0 loads in
      let close x y = abs_float (x -. y) <= 1e-9 *. Float.max 1.0 (abs_float y) in
      let queues = Array.make h.H.n2 [] in
      for v = h.H.n1 - 1 downto 0 do
        let e = a.Ha.choice.(v) in
        H.iter_h_procs h e (fun u -> queues.(u) <- (v, H.h_weight h e) :: queues.(u))
      done;
      List.for_all
        (fun policy ->
          let t = Sim.run ~policy h a in
          let back_to_back u =
            let rec chain clock events expected =
              match (events, expected) with
              | [], [] -> true
              | e :: events, (v, w) :: expected ->
                  e.Sim.task = v && e.Sim.start = clock
                  && e.Sim.finish = clock +. w
                  && chain e.Sim.finish events expected
              | _ -> false
            in
            chain 0.0
              (List.filter (fun e -> e.Sim.proc = u) t.Sim.events)
              (policy_order policy queues.(u))
          in
          let last_part = Array.make h.H.n1 0.0 in
          List.iter
            (fun e -> last_part.(e.Sim.task) <- Float.max last_part.(e.Sim.task) e.Sim.finish)
            t.Sim.events;
          List.for_all back_to_back (List.init h.H.n2 Fun.id)
          && Array.for_all2 close t.Sim.proc_busy loads
          && close t.Sim.makespan max_load
          && t.Sim.task_completion = last_part)
        [ Sim.Fifo; Sim.Spt; Sim.Lpt; Sim.Random_order seed; Sim.Random_order (seed + 1) ])

let simulation_matches_loads_prop =
  QCheck.Test.make
    ~name:"simulated makespan = max processor load, under every policy" ~count:150
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance seed in
      let a = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Sorted_greedy_hyp h in
      let loads = Ha.loads h a in
      let max_load = Array.fold_left Float.max 0.0 loads in
      List.for_all
        (fun policy ->
          let t = Sim.run ~policy h a in
          abs_float (t.Sim.makespan -. max_load) < 1e-6
          && Array.for_all2 (fun busy l -> abs_float (busy -. l) < 1e-6) t.Sim.proc_busy loads)
        [ Sim.Fifo; Sim.Spt; Sim.Lpt; Sim.Random_order (seed + 1) ])

let no_overlap_prop =
  QCheck.Test.make ~name:"no processor runs two parts at once; no idling mid-queue" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance seed in
      let a = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Expected_greedy_hyp h in
      let t = Sim.run ~policy:Sim.Spt h a in
      let by_proc = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let existing = try Hashtbl.find by_proc e.Sim.proc with Not_found -> [] in
          Hashtbl.replace by_proc e.Sim.proc (e :: existing))
        t.Sim.events;
      Hashtbl.fold
        (fun _proc events acc ->
          let sorted = List.sort (fun a b -> compare a.Sim.start b.Sim.start) events in
          let rec contiguous = function
            | a :: (b :: _ as rest) ->
                abs_float (a.Sim.finish -. b.Sim.start) < 1e-6 && contiguous rest
            | _ -> true
          in
          acc
          && (match sorted with [] -> true | first :: _ -> first.Sim.start = 0.0)
          && contiguous sorted)
        by_proc true)

let completion_covers_all_parts_prop =
  QCheck.Test.make ~name:"task completion = max over its part finishes" ~count:100
    QCheck.(int_bound 1000000)
    (fun seed ->
      let h = random_instance seed in
      let a = Semimatch.Greedy_hyper.run Semimatch.Greedy_hyper.Vector_greedy_hyp h in
      let t = Sim.run h a in
      let max_finish = Array.make h.H.n1 0.0 in
      List.iter
        (fun e -> if e.Sim.finish > max_finish.(e.Sim.task) then max_finish.(e.Sim.task) <- e.Sim.finish)
        t.Sim.events;
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) max_finish t.Sim.task_completion)

let test_gantt () =
  let h, a = toy () in
  let t = Sim.run h a in
  let chart = Sim.gantt ~width:10 ~proc_names:(Printf.sprintf "P%d") t in
  let lines = String.split_on_char '\n' chart in
  Alcotest.(check int) "header + 2 rows + trailing" 4 (List.length lines);
  check "mentions P1" true (List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "P1") lines)

let suite =
  [
    Alcotest.test_case "toy semantics" `Quick test_toy_semantics;
    Alcotest.test_case "policy changes completions, not makespan" `Quick
      test_policy_changes_completions_not_makespan;
    Alcotest.test_case "average completion" `Quick test_average_completion;
    QCheck_alcotest.to_alcotest simulation_matches_loads_prop;
    QCheck_alcotest.to_alcotest no_overlap_prop;
    QCheck_alcotest.to_alcotest completion_covers_all_parts_prop;
    QCheck_alcotest.to_alcotest execution_model_prop;
    Alcotest.test_case "gantt rendering" `Quick test_gantt;
  ]
