(* Regenerates every table of the paper's evaluation section.

   Usage:
     experiments_main table1 [--scale K] [--seeds N]
     experiments_main table2 ...           (unweighted MULTIPROC, Table II)
     experiments_main table3 ...           (related weights, Table III)
     experiments_main table-random ...     (TR Table 8 check)
     experiments_main singleproc [--d D] ...
     experiments_main all ...

   --csv FILE additionally dumps machine-readable results. *)

open Cmdliner

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Zero or negative counts (scale, seeds, degree, domains, orders,
   trials) are a usage error, reported before any row runs. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  let doc = "Divide instance sizes by $(docv) (1 = the paper's full sizes)." in
  Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"K" ~doc)

let seeds_arg =
  let doc = "Random replicates per instance (the paper uses 10)." in
  Arg.(value & opt positive_int 10 & info [ "seeds" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Also write results as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc = "Parallel domains for instance evaluation (quality unchanged;              keep 1 when timings matter)." in
  Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"J" ~doc)

let d_arg =
  let doc = "Average degree d for SINGLEPROC instances (paper details d=10)." in
  Arg.(value & opt positive_int 10 & info [ "d" ] ~docv:"D" ~doc)

let weights_arg default =
  let schemes =
    [ ("unit", Hyper.Weights.Unit); ("related", Hyper.Weights.Related);
      ("random", Hyper.Weights.default_random) ]
  in
  Arg.(value & opt (enum schemes) default & info [ "weights" ] ~docv:"SCHEME" ~doc:"unit, related or random")

let run_multiproc ?(jobs = 1) ~weights ~title ~with_table1 scale seeds csv =
  let t0 = Obs.Span.now_ns () in
  let rows = Experiments.Runner.run ~seeds ~scale ~jobs ~weights () in
  if with_table1 then begin
    print_string "Table I: random hypergraph instances\n\n";
    print_string (Experiments.Runner.render_table1 rows);
    print_newline ()
  end;
  print_string (Experiments.Runner.render_quality ~title rows);
  Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0));
  Option.iter (fun path -> write_file path (Experiments.Runner.to_csv rows)) csv

let table1_cmd =
  let run scale seeds csv =
    let rows = Experiments.Runner.run ~algorithms:[] ~seeds ~scale ~weights:Hyper.Weights.Unit () in
    print_string "Table I: random hypergraph instances\n\n";
    print_string (Experiments.Runner.render_table1 rows);
    Option.iter (fun path -> write_file path (Experiments.Runner.to_csv rows)) csv
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Instance statistics (Table I)")
    Term.(const run $ scale_arg $ seeds_arg $ csv_arg)

let table2_cmd =
  let run scale seeds csv jobs =
    run_multiproc ~jobs ~weights:Hyper.Weights.Unit
      ~title:"Table II: heuristic quality wrt LB, unweighted hypergraphs" ~with_table1:true scale
      seeds csv
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Unweighted MULTIPROC quality (Table II)")
    Term.(const run $ scale_arg $ seeds_arg $ csv_arg $ jobs_arg)

let table3_cmd =
  let run scale seeds csv jobs =
    run_multiproc ~jobs ~weights:Hyper.Weights.Related
      ~title:"Table III: heuristic quality wrt LB, related weights" ~with_table1:false scale seeds
      csv
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Related-weights MULTIPROC quality (Table III)")
    Term.(const run $ scale_arg $ seeds_arg $ csv_arg $ jobs_arg)

let table_random_cmd =
  let run scale seeds csv jobs =
    run_multiproc ~jobs ~weights:Hyper.Weights.default_random
      ~title:"TR Table 8 check: heuristic quality wrt LB, random weights" ~with_table1:false scale
      seeds csv
  in
  Cmd.v
    (Cmd.info "table-random" ~doc:"Random-weights double check (TR Table 8)")
    Term.(const run $ scale_arg $ seeds_arg $ csv_arg $ jobs_arg)

let singleproc_cmd =
  let run scale seeds d csv jobs =
    let t0 = Obs.Span.now_ns () in
    let rows = Experiments.Sp_runner.run ~seeds ~scale ~d ~jobs () in
    print_string
      (Experiments.Sp_runner.render
         ~title:
           (Printf.sprintf
              "SINGLEPROC-UNIT: heuristic quality wrt the exact optimum (d=%d; paper Sec. V-B)" d)
         rows);
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0));
    Option.iter (fun path -> write_file path (Experiments.Sp_runner.to_csv rows)) csv
  in
  Cmd.v
    (Cmd.info "singleproc" ~doc:"SINGLEPROC-UNIT summary experiments (Sec. V-B)")
    Term.(const run $ scale_arg $ seeds_arg $ d_arg $ csv_arg $ jobs_arg)

let ablations_cmd =
  let run scale seeds =
    print_string (Experiments.Ablations.run_all ~seeds ~scale ())
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Vector-variant, matching-engine, exact-strategy and baseline ablations")
    Term.(const run $ scale_arg $ seeds_arg)

let sweep_cmd =
  let run seeds weights jobs =
    let t0 = Obs.Span.now_ns () in
    let results = Experiments.Sweep.run ~seeds ~jobs ~weights () in
    print_string
      (Printf.sprintf
         "Ranking stability across dv, dh in {2,5,10} and g in {32,128} (%s weights):\n\n"
         (Hyper.Weights.name weights));
    print_string (Experiments.Sweep.render results);
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Check the paper's claim that heuristic rankings are stable across dv/dh/g")
    Term.(const run $ seeds_arg $ weights_arg Hyper.Weights.Related $ jobs_arg)

let weighted_sp_cmd =
  let run seeds =
    let t0 = Obs.Span.now_ns () in
    print_string (Experiments.Weighted_sp.render (Experiments.Weighted_sp.run ~seeds ()));
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  Cmd.v
    (Cmd.info "singleproc-weighted" ~doc:"Weighted SINGLEPROC extension study")
    Term.(const run $ seeds_arg)

let online_cmd =
  let run scale seeds d orders =
    let t0 = Obs.Span.now_ns () in
    print_string (Experiments.Online.render (Experiments.Online.run ~seeds ~orders ~scale ~d ()));
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  let orders_arg =
    Arg.(value & opt positive_int 20 & info [ "orders" ] ~docv:"K" ~doc:"arrival permutations per replicate")
  in
  Cmd.v
    (Cmd.info "online" ~doc:"Online-arrival competitive-ratio extension study")
    Term.(const run $ scale_arg $ seeds_arg $ d_arg $ orders_arg)

let hardness_cmd =
  let run trials =
    let t0 = Obs.Span.now_ns () in
    print_string (Experiments.Hardness.render (Experiments.Hardness.run ~trials ()));
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  let trials_arg =
    Arg.(value & opt positive_int 50 & info [ "trials" ] ~docv:"T" ~doc:"planted instances per row")
  in
  Cmd.v
    (Cmd.info "hardness" ~doc:"Planted X3C covers: heuristics vs the Theorem-1 threshold")
    Term.(const run $ trials_arg)

let bounds_cmd =
  let run scale seeds weights =
    let t0 = Obs.Span.now_ns () in
    print_string (Experiments.Bounds.render (Experiments.Bounds.run ~seeds ~scale ~weights ()));
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Lower-bound quality study (bound looseness vs heuristic error)")
    Term.(const run $ scale_arg $ seeds_arg $ weights_arg Hyper.Weights.Unit)

let robustness_cmd =
  let run seeds =
    let t0 = Obs.Span.now_ns () in
    print_string (Experiments.Robustness.render (Experiments.Robustness.run ~seeds ()));
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  Cmd.v
    (Cmd.info "robustness" ~doc:"Heuristic rankings on off-paper instance families")
    Term.(const run $ seeds_arg)

let faults_cmd =
  let run seeds json =
    let t0 = Obs.Span.now_ns () in
    let rows = Experiments.Fault_sweep.run ~seeds () in
    print_string (Experiments.Fault_sweep.render rows);
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0));
    match json with
    | None -> ()
    | Some path ->
        Experiments.Fault_sweep.write_json path rows;
        Printf.eprintf "wrote %s\n" path
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write rows as JSON lines to $(docv).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Fault sweep: repaired-makespan/LB ratio vs fraction of processors killed")
    Term.(const run $ seeds_arg $ json_arg)

let stream_cmd =
  let run scale seeds d csv online =
    let t0 = Obs.Span.now_ns () in
    let rows = Experiments.Stream_quality.run ~seeds ~scale ~d () in
    print_string (Experiments.Stream_quality.render rows);
    Option.iter
      (fun path -> write_file path (Experiments.Stream_quality.to_csv rows))
      csv;
    if online then begin
      print_newline ();
      let orows = Experiments.Stream_quality.run_online ~seeds ~scale () in
      print_string (Experiments.Stream_quality.render_online orows);
      Option.iter
        (fun path -> write_file (path ^ ".online") (Experiments.Stream_quality.online_to_csv orows))
        csv
    end;
    Printf.printf "\n(total %.1f s)\n" (Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t0))
  in
  let online_arg =
    Arg.(value & flag
         & info [ "online" ]
             ~doc:"Also run the online greedy over the general MULTIPROC grid.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Streaming quality vs memory: one-/few-pass makespan ratio to the exact optimum \
          next to solver state as a fraction of the avoided CSR")
    Term.(const run $ scale_arg $ seeds_arg $ d_arg $ csv_arg $ online_arg)

let all_cmd =
  let run scale seeds =
    run_multiproc ~weights:Hyper.Weights.Unit
      ~title:"Table II: heuristic quality wrt LB, unweighted hypergraphs" ~with_table1:true scale
      seeds None;
    print_newline ();
    run_multiproc ~weights:Hyper.Weights.Related
      ~title:"Table III: heuristic quality wrt LB, related weights" ~with_table1:false scale seeds
      None;
    print_newline ();
    run_multiproc ~weights:Hyper.Weights.default_random
      ~title:"TR Table 8 check: heuristic quality wrt LB, random weights" ~with_table1:false scale
      seeds None;
    print_newline ();
    let rows = Experiments.Sp_runner.run ~seeds ~scale () in
    print_string
      (Experiments.Sp_runner.render
         ~title:"SINGLEPROC-UNIT: heuristic quality wrt the exact optimum (d=10)" rows)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table in sequence")
    Term.(const run $ scale_arg $ seeds_arg)

let () =
  let info =
    Cmd.info "experiments_main" ~doc:"Reproduce the paper's evaluation tables"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Regenerates Tables I-III of Benoit, Langguth and U\xc3\xa7ar, \
             'Semi-matching algorithms for scheduling parallel tasks under resource \
             constraints' (IPDPSW 2013), plus the SINGLEPROC summary experiments and the \
             technical report's random-weights variant.";
        ]
  in
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 1_000_000;
  let code =
    Cmd.eval ~err
      (Cmd.group info
         [ table1_cmd; table2_cmd; table3_cmd; table_random_cmd; singleproc_cmd; weighted_sp_cmd; online_cmd; ablations_cmd; sweep_cmd; hardness_cmd; bounds_cmd; robustness_cmd; faults_cmd; stream_cmd; all_cmd ])
  in
  Format.pp_print_flush err ();
  (* semimatch_cli's contract: a usage error (unknown flag, bad value) is
     cmdliner's first diagnostic line alone, and exit 2, not 124. *)
  if code = Cmd.Exit.cli_error then begin
    prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
    exit 2
  end;
  prerr_string (Buffer.contents buf);
  exit code
