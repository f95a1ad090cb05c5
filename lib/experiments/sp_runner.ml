module Gb = Semimatch.Greedy_bipartite

type algo_result = { algo : Gb.algorithm; ratio : float; time_s : float }

type row = {
  spec : Instances.singleproc_spec;
  optimum : float;
  exact_time_s : float;
  results : algo_result list;
}

let time_it f = Runner.time_it ~span:"experiments.singleproc" f

let run_row ?(algorithms = Gb.all) ?(seeds = 10) spec =
  if seeds <= 0 then invalid_arg "Sp_runner.run_row: seeds must be positive";
  let replicates = List.init seeds (fun seed -> Instances.generate_singleproc ~seed spec) in
  let exact =
    List.map
      (fun g -> time_it (fun () -> (Semimatch.Exact_unit.solve g).makespan))
      replicates
  in
  let optima = Array.of_list (List.map (fun (m, _) -> float_of_int m) exact) in
  let results =
    List.map
      (fun algo ->
        let measured =
          List.mapi
            (fun i g ->
              let makespan, seconds = time_it (fun () -> Gb.makespan algo g) in
              (makespan /. optima.(i), seconds))
            replicates
        in
        {
          algo;
          ratio = Ds.Stats.median (Array.of_list (List.map fst measured));
          time_s = Ds.Stats.mean (Array.of_list (List.map snd measured));
        })
      algorithms
  in
  {
    spec;
    optimum = Ds.Stats.median optima;
    exact_time_s = Ds.Stats.mean (Array.of_list (List.map snd exact));
    results;
  }

let run ?algorithms ?seeds ?(scale = 1) ?d ?(jobs = 1) () =
  Instances.paper_grid_singleproc ?d ()
  |> List.map (Instances.scaled_singleproc scale)
  |> Parpool.Pool.map_list ~jobs ~f:(fun spec -> run_row ?algorithms ?seeds spec)

let render ~title rows =
  match rows with
  | [] -> title ^ "\n(no rows)\n"
  | first :: _ ->
      let algos = List.map (fun r -> r.algo) first.results in
      let header = "Instance" :: "M_opt" :: "t_exact(s)" :: List.map Gb.name algos in
      let body =
        List.map
          (fun r ->
            r.spec.Instances.sp_name
            :: Printf.sprintf "%.4g" r.optimum
            :: Tables.fmt_time r.exact_time_s
            :: List.map (fun res -> Tables.fmt_ratio res.ratio) r.results)
          rows
      in
      let mean_over extract =
        List.mapi
          (fun i _ ->
            Ds.Stats.mean (Array.of_list (List.map (fun r -> extract (List.nth r.results i)) rows)))
          algos
      in
      let footer =
        [
          "Average quality" :: "" :: ""
          :: List.map Tables.fmt_ratio (mean_over (fun res -> res.ratio));
          "Average time (s)" :: ""
          :: Tables.fmt_time (Ds.Stats.mean (Array.of_list (List.map (fun r -> r.exact_time_s) rows)))
          :: List.map Tables.fmt_time (mean_over (fun res -> res.time_s));
        ]
      in
      title ^ "\n\n" ^ Tables.render ~header ~rows:body ~footer ()

let to_csv rows =
  let header =
    [ "instance"; "n"; "p"; "d"; "g"; "optimum"; "exact_time_s"; "algorithm"; "ratio"; "time_s" ]
  in
  let body =
    List.concat_map
      (fun r ->
        List.map
          (fun res ->
            [
              r.spec.Instances.sp_name;
              string_of_int r.spec.Instances.sp_n;
              string_of_int r.spec.Instances.sp_p;
              string_of_int r.spec.Instances.sp_d;
              string_of_int r.spec.Instances.sp_g;
              Printf.sprintf "%.6g" r.optimum;
              Printf.sprintf "%.6g" r.exact_time_s;
              Gb.name res.algo;
              Printf.sprintf "%.6g" res.ratio;
              Printf.sprintf "%.6g" res.time_s;
            ])
          r.results)
      rows
  in
  Tables.csv ~header ~rows:body
