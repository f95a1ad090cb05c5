(* mp-portfolio: the paper's core use (Tables II/III).  One caller cycles
   through seeded paper-grid MULTIPROC instances — FewgManyg and HiLo,
   g in {32, 128}, Unit and Related weights, four replicates of each — and
   each op parses the .hg text, computes the refined lower bound, runs the
   sequential portfolio and checks the schedule.  With two replicates the
   p90 rested on the second-slowest of 16 random instances and spread by up
   to 19% across seeds; four replicates put more instances under each
   percentile. *)

open Measure
module S = Semimatch

(* n = 20*256 tasks, p = 4*256 processors, divided by [scale]. *)
let scale = 8
let grid_names = [ "FG-20-4-MP"; "MG-20-4-MP"; "HLF-20-4-MP"; "HLM-20-4-MP" ]
let replicates = 4

type instance = {
  name : string;
  text : string;  (** the .hg input the op parses *)
  pins : int;
  mutable ratio : float;  (** makespan / refined LB, from the last op *)
}

let setup ~seed =
  let specs =
    List.filter
      (fun s -> List.mem s.Experiments.Instances.name grid_names)
      (Experiments.Instances.paper_grid ())
  in
  List.concat_map
    (fun spec ->
      let spec = Experiments.Instances.scaled scale spec in
      List.concat_map
        (fun r ->
          List.map
            (fun weights ->
              let h = Experiments.Instances.generate_multiproc ~seed:((replicates * seed) + r) ~weights spec in
              {
                name = Printf.sprintf "%s/%s/r%d" spec.Experiments.Instances.name (Hyper.Weights.name weights) r;
                text = Hyper.Io.to_string h;
                pins = Hyper.Graph.num_pins h;
                ratio = 0.0;
              })
            [ Hyper.Weights.Unit; Hyper.Weights.Related ])
        (List.init replicates Fun.id))
    specs
  |> Array.of_list

(* Time spent in Portfolio.solve outside its solvers, and in each solver,
   summed over traced ops. *)
let portfolio_other_ms = ref 0.0
let solver_ms : (string, float) Hashtbl.t = Hashtbl.create 8

let op inst () =
  let h = span "hyper.io.parse" (fun () -> Hyper.Io.of_string inst.text) in
  let lb = span "semimatch.lower_bound" (fun () -> S.Lower_bound.multiproc_refined h) in
  let r, solve_ms = span "semimatch.portfolio" (fun () -> time_ms (fun () -> S.Portfolio.solve ~jobs:1 h)) in
  if !Trace.enabled then begin
    let solvers_s = List.fold_left (fun acc o -> acc +. o.S.Portfolio.o_time_s) 0.0 r.S.Portfolio.outcomes in
    portfolio_other_ms := !portfolio_other_ms +. solve_ms -. (1000.0 *. solvers_s);
    List.iter
      (fun o ->
        let name = S.Portfolio.solver_name o.S.Portfolio.o_solver in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt solver_ms name) in
        Hashtbl.replace solver_ms name (prev +. (1000.0 *. o.S.Portfolio.o_time_s)))
      r.S.Portfolio.outcomes
  end;
  span "bench.check" (fun () ->
      let a = r.S.Portfolio.assignment in
      if not (S.Hyp_assignment.is_valid h a) then wrong "invalid assignment";
      let m = S.Hyp_assignment.makespan h a in
      if Float.abs (m -. r.S.Portfolio.best_makespan) > 1e-9 *. Float.max 1.0 m then
        wrong "reported makespan %g, recomputed %g" r.S.Portfolio.best_makespan m;
      if r.S.Portfolio.lower_bound <> lb then wrong "portfolio LB %g <> refined LB %g" r.S.Portfolio.lower_bound lb;
      if m < lb -. 1e-9 then wrong "makespan %g below the lower bound %g" m lb;
      inst.ratio <- m /. lb)

(* Layer probes: each layer's public entry point called on its own, once per
   instance (best of two, tracing off). *)
let probes insts =
  let best2 f = Float.min (snd (time_ms f)) (snd (time_ms f)) in
  let n = float_of_int (Array.length insts) in
  let greedy = Hashtbl.create 4 in
  let ls_ms = ref 0.0 and moves = ref 0 and anneal_ms = ref 0.0 in
  Array.iter
    (fun inst ->
      let h = Hyper.Io.of_string inst.text in
      List.iter
        (fun alg ->
          let ms = best2 (fun () -> ignore (S.Greedy_hyper.run alg h)) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt greedy alg) in
          Hashtbl.replace greedy alg (prev +. ms))
        S.Greedy_hyper.all;
      let start = S.Greedy_hyper.run S.Greedy_hyper.Expected_vector_greedy_hyp h in
      ls_ms := !ls_ms +. best2 (fun () -> ignore (S.Local_search.refine h start));
      moves := !moves + snd (S.Local_search.refine h start);
      anneal_ms :=
        !anneal_ms +. best2 (fun () -> ignore (S.Annealing.solve (Randkit.Prng.create ~seed:1) h)))
    insts;
  let g alg = Hashtbl.find greedy alg /. n in
  let sgh = g S.Greedy_hyper.Sorted_greedy_hyp in
  let vgh = g S.Greedy_hyper.Vector_greedy_hyp and evg = g S.Greedy_hyper.Expected_vector_greedy_hyp in
  Printf.printf "\npaper ranking check (Sec. V: VGH ~7x, EVG ~13x SGH): VGH/SGH = %.2f, EVG/SGH = %.2f\n"
    (vgh /. sgh) (evg /. sgh);
  [
    metric "semimatch.greedy.sgh_ms" "ms" sgh;
    metric "semimatch.greedy.egh_ms" "ms" (g S.Greedy_hyper.Expected_greedy_hyp);
    metric "semimatch.greedy.vgh_ms" "ms" vgh;
    metric "semimatch.greedy.evg_ms" "ms" evg;
    metric "semimatch.greedy.vgh_over_sgh" "ratio" (vgh /. sgh);
    metric "semimatch.greedy.evg_over_sgh" "ratio" (evg /. sgh);
    metric "semimatch.local_search.refine_ms" "ms" (!ls_ms /. n);
    metric "semimatch.local_search.moves" "count" (float_of_int !moves /. n);
    metric "semimatch.annealing.solve_ms" "ms" (!anneal_ms /. n);
  ]

let run ~seed ~seconds ~trace =
  (* each set-up ends with one untraced warm-up cycle, which grows the heap
     and fills the caches; one warm-up alone moved setup_s by 15% *)
  let insts, setup_ms =
    repeated_setup (fun () ->
        let insts = setup ~seed in
        Array.iter (fun inst -> op inst ()) insts;
        insts)
  in
  let ops = Array.map (fun inst -> (inst.name, op inst)) insts in
  let loop = closed_loop ~seconds ~trace ops in
  let lat = loop.scaled_ms in
  let p50 = cycle_median loop ~ops_per_cycle:(Array.length insts) in
  let op_time_s = sum lat /. 1000.0 in
  let pins_done =
    float_of_int (Array.fold_left (fun acc i -> acc + i.pins) 0 insts)
    *. (float_of_int (Array.length lat) /. float_of_int (Array.length insts))
  in
  Printf.printf "mp-portfolio: %d instances (paper grid / %d), %d cycles\n" (Array.length insts) scale
    loop.cycles;
  Array.iter (fun i -> Printf.printf "  %-24s pins=%-8d makespan/LB=%.4f\n" i.name i.pins i.ratio) insts;
  print_speed loop.kernel_ms;
  print_tail ~pct:90.0 "solve latency" loop.measured_ms;
  print_tail ~pct:90.0 "solve latency, scaled" lat;
  let e2e =
    [
      metric "setup_s" "s" (setup_ms *. run_scale loop.kernel_ms /. 1000.0);
      metric "solve_p50_ms" "ms" p50;
      metric "solve_tail_ms" "ms" (tail ~pct:90.0 lat).value;
      metric "request_p50_ms" "ms" p50;
      metric "request_tail_ms" "ms" (tail ~pct:90.0 lat).value;
      metric "makespan_ratio" "ratio" (geomean (Array.to_list (Array.map (fun i -> i.ratio) insts)));
      metric "edges_per_s" "edges/s" (if op_time_s > 0.0 then pins_done /. op_time_s else 0.0);
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric "ok_frac" "frac" (ok_frac ~attempted:loop.l_attempted ~failed:loop.l_failed);
    ]
  in
  let layers =
    if not trace then []
    else begin
      print_ledger ~title:"mp-portfolio" loop;
      let ops = float_of_int (Array.length loop.traced_ms) in
      Printf.printf "  inside semimatch.portfolio, ms/op:";
      List.iter
        (fun s ->
          let name = S.Portfolio.solver_name s in
          Printf.printf " %s %.3f" name (Option.value ~default:0.0 (Hashtbl.find_opt solver_ms name) /. ops))
        S.Portfolio.default_solvers;
      Printf.printf ", other %.3f\n" (!portfolio_other_ms /. ops);
      [
        metric "trace.overhead_pct" "%" (overhead_pct loop);
        metric "hyper.io.parse_ms" "ms" (per_op_ms loop "hyper.io.parse");
        metric "semimatch.lower_bound_ms" "ms" (per_op_ms loop "semimatch.lower_bound");
        metric "semimatch.portfolio.other_ms" "ms" (!portfolio_other_ms /. ops);
      ]
      @ probes insts
    end
  in
  {
    attempted = loop.l_attempted;
    failed = loop.l_failed;
    wrong_answers = loop.l_wrong;
    e2e;
    layers;
  }
