(* sp-exact: paper-size SINGLEPROC-UNIT instances (Sec. V, n = 20*256
   tasks, n/p in {5, 20}, d in {2, 5, 10}, FewgManyg and HiLo with g = 32).
   One caller cycles through them; each op parses the .hg text, lowers it to
   a bipartite graph, runs Exact_unit.solve (the CLI [exact] default) and
   checks the makespan against an optimum recorded at set-up by a second
   engine (Gen_hk).  Two replicates of each instance: with one, the cycle
   median rested on two random instances and spread by up to 14% across
   seeds. *)

open Measure
module S = Semimatch

let grid_names = [ "FG-20-1"; "FG-20-4"; "HLF-20-1"; "HLF-20-4" ]
let replicates = 2

type instance = {
  name : string;
  replicate : int;
  text : string;
  edges : int;
  opt : int;  (** optimal makespan, from Gen_hk at set-up *)
  lb : int;  (** ceil(n/p) *)
  mutable deadlines : int;  (** deadlines_tried of the last op *)
  mutable makespan : int;  (** makespan of the last op *)
}

let setup ~seed =
  List.concat_map
    (fun (d, r) ->
      List.filter_map
        (fun spec ->
          let open Experiments.Instances in
          if not (List.mem spec.sp_name grid_names) then None
          else begin
            let g = generate_singleproc ~seed:((replicates * seed) + r) spec in
            let opt = (S.Exact_unit.solve_with ~exact:S.Exact_unit.Gen_hk g).S.Exact_unit.makespan in
            Some
              {
                name = Printf.sprintf "%s/d%d/r%d" spec.sp_name d r;
                replicate = r;
                text = Hyper.Io.to_string (Hyper.Graph.of_bipartite g);
                edges = Bipartite.Graph.num_edges g;
                opt;
                lb = S.Lower_bound.singleproc_unit g;
                deadlines = 0;
                makespan = 0;
              }
          end)
        (Experiments.Instances.paper_grid_singleproc ~d ()))
    (List.concat_map (fun d -> List.init replicates (fun r -> (d, r))) [ 2; 5; 10 ])
  |> Array.of_list

let op inst () =
  let h = span "hyper.io.parse" (fun () -> Hyper.Io.of_string inst.text) in
  let g =
    match span "hyper.to_bipartite" (fun () -> Hyper.Graph.to_bipartite h) with
    | Some g -> g
    | None -> wrong "not a SINGLEPROC instance"
  in
  let lb = span "semimatch.lower_bound" (fun () -> S.Lower_bound.singleproc_unit g) in
  let sol = span "semimatch.exact.solve" (fun () -> S.Exact_unit.solve g) in
  span "bench.check" (fun () ->
      let a = sol.S.Exact_unit.assignment in
      inst.makespan <- sol.S.Exact_unit.makespan;
      if sol.S.Exact_unit.makespan <> inst.opt then
        wrong "makespan %d, optimum %d" sol.S.Exact_unit.makespan inst.opt;
      if lb <> inst.lb then wrong "lower bound %d, expected %d" lb inst.lb;
      if not (S.Bip_assignment.is_valid g a) then wrong "invalid assignment";
      let m = S.Bip_assignment.makespan g a in
      if m <> float_of_int inst.opt then wrong "assignment max load %g, optimum %d" m inst.opt;
      inst.deadlines <- sol.S.Exact_unit.deadlines_tried)

let graph inst =
  match Hyper.Graph.to_bipartite (Hyper.Io.of_string inst.text) with
  | Some g -> g
  | None -> assert false

(* Layer probes, tracing off, on the first replicate of each grid row: one
   capacitated Hopcroft-Karp matching at the optimal capacity, and every
   exact engine once per instance.  The engine
   table is the measurement the engine-pruning work needs. *)
let probes insts =
  let insts = List.filter (fun i -> i.replicate = 0) (Array.to_list insts) in
  let n = float_of_int (List.length insts) in
  let hk_ms = ref 0.0 and phases = ref 0 and augs = ref 0 in
  let engines = S.Exact_unit.all_exact_engines in
  let totals = Array.make (List.length engines) 0.0 in
  Printf.printf "\nexact engines per op across the sp-exact grid (ms):\n  %-14s %5s" "instance" "opt";
  List.iter (fun e -> Printf.printf " %9s" (S.Exact_unit.exact_engine_name e)) engines;
  print_newline ();
  List.iter
    (fun inst ->
      let g = graph inst in
      let capacities = Array.make g.Bipartite.Graph.n2 inst.opt in
      let (_, st), ms =
        time_ms (fun () -> Matching.solve_with_stats ~engine:Matching.Hopcroft_karp ~capacities g)
      in
      hk_ms := !hk_ms +. ms;
      phases := !phases + st.Matching.phases;
      augs := !augs + st.Matching.augmentations;
      Printf.printf "  %-14s %5d" inst.name inst.opt;
      List.iteri
        (fun i exact ->
          let sol, ms = time_ms (fun () -> S.Exact_unit.solve_with ~exact g) in
          if sol.S.Exact_unit.makespan <> inst.opt then
            Printf.eprintf "perfbench: engine %s disagrees on %s\n%!" (S.Exact_unit.exact_engine_name exact) inst.name;
          totals.(i) <- totals.(i) +. ms;
          Printf.printf " %9.2f" ms)
        engines;
      print_newline ())
    insts;
  [
    metric "matching.hk.one_matching_ms" "ms" (!hk_ms /. n);
    metric "matching.hk.phases" "count" (float_of_int !phases /. n);
    metric "matching.augmentations" "count" (float_of_int !augs /. n);
  ]
  @ List.mapi
      (fun i e ->
        metric (Printf.sprintf "semimatch.exact.engine.%s_ms" (S.Exact_unit.exact_engine_name e)) "ms" (totals.(i) /. n))
      engines

let run ~seed ~seconds ~trace =
  (* each set-up ends with one untraced warm-up cycle *)
  let insts, setup_ms =
    repeated_setup (fun () ->
        let insts = setup ~seed in
        Array.iter (fun inst -> op inst ()) insts;
        insts)
  in
  let loop = closed_loop ~seconds ~trace (Array.map (fun inst -> (inst.name, op inst)) insts) in
  let lat = loop.scaled_ms in
  let p50 = cycle_median loop ~ops_per_cycle:(Array.length insts) in
  let edges_done =
    float_of_int (Array.fold_left (fun acc i -> acc + i.edges) 0 insts)
    *. (float_of_int (Array.length lat) /. float_of_int (Array.length insts))
  in
  Printf.printf "sp-exact: %d instances, %d cycles\n" (Array.length insts) loop.cycles;
  Array.iter
    (fun i -> Printf.printf "  %-14s edges=%-7d opt=%-4d ceil(n/p)=%-4d deadlines=%d\n" i.name i.edges i.opt i.lb i.deadlines)
    insts;
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
      metric "makespan_ratio" "ratio"
        (geomean (Array.to_list (Array.map (fun i -> float_of_int i.makespan /. float_of_int i.opt) insts)));
      metric "edges_per_s" "edges/s" (edges_done /. (sum lat /. 1000.0));
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric "ok_frac" "frac" (ok_frac ~attempted:loop.l_attempted ~failed:loop.l_failed);
    ]
  in
  let layers =
    if not trace then []
    else begin
      print_ledger ~title:"sp-exact" loop;
      [
        metric "trace.overhead_pct" "%" (overhead_pct loop);
        metric "hyper.io.parse_ms" "ms" (per_op_ms loop "hyper.io.parse");
        metric "hyper.to_bipartite_ms" "ms" (per_op_ms loop "hyper.to_bipartite");
        metric "semimatch.lower_bound_ms" "ms" (per_op_ms loop "semimatch.lower_bound");
        metric "semimatch.exact.solve_ms" "ms" (per_op_ms loop "semimatch.exact.solve");
        metric "semimatch.exact.deadlines_tried" "count"
          (mean (Array.map (fun i -> float_of_int i.deadlines) insts));
      ]
      @ probes insts
    end
  in
  { attempted = loop.l_attempted; failed = loop.l_failed; wrong_answers = loop.l_wrong; e2e; layers }
