module Gb = Semimatch.Greedy_bipartite

type row = {
  label : string;
  n : int;
  p : int;
  lb : float;
  opt : float option;
  ratios : (Gb.algorithm * float) list;
  refined_ratio : float;
}

let random_weighted_bipartite rng ~n ~p ~d ~wmax =
  let edges = ref [] in
  for v = 0 to n - 1 do
    let deg = max 1 (Randkit.Binomial.sample_mean rng ~mean:(float_of_int d) ~trials:(2 * d)) in
    let deg = min deg p in
    let procs = Randkit.Prng.sample_without_replacement rng ~k:deg ~n:p in
    Array.iter
      (fun u -> edges := (v, u, float_of_int (Randkit.Prng.int_in_range rng ~lo:1 ~hi:wmax)) :: !edges)
      procs
  done;
  Bipartite.Graph.create ~n1:n ~n2:p ~edges:(List.rev !edges)

let run_row ?(seeds = 5) ~n ~p () =
  let d = 3 and wmax = 10 in
  let replicates =
    List.init seeds (fun seed ->
        random_weighted_bipartite (Randkit.Prng.create ~seed:(seed + (31 * n) + p)) ~n ~p ~d ~wmax)
  in
  let lbs = List.map Semimatch.Lower_bound.singleproc replicates in
  let lb = Ds.Stats.median (Array.of_list lbs) in
  let brute_affordable = n <= 12 in
  let opt =
    if brute_affordable then
      Some
        (Ds.Stats.median
           (Array.of_list (List.map (fun g -> fst (Semimatch.Brute_force.singleproc g)) replicates)))
    else None
  in
  let ratios =
    List.map
      (fun algo ->
        let rs = List.map2 (fun g l -> Gb.makespan algo g /. l) replicates lbs in
        (algo, Ds.Stats.median (Array.of_list rs)))
      Gb.all_weighted
  in
  let refined_ratio =
    let rs =
      List.map2
        (fun g l ->
          let start = Gb.run Gb.Expected g in
          let refined, _ = Semimatch.Local_search.refine_bipartite g start in
          Semimatch.Bip_assignment.makespan g refined /. l)
        replicates lbs
    in
    Ds.Stats.median (Array.of_list rs)
  in
  { label = Printf.sprintf "W-%d-%d" n p; n; p; lb; opt; ratios; refined_ratio }

let run ?seeds () =
  [
    run_row ?seeds ~n:10 ~p:3 ();
    run_row ?seeds ~n:100 ~p:16 ();
    run_row ?seeds ~n:1000 ~p:64 ();
    run_row ?seeds ~n:5000 ~p:128 ();
  ]

let render rows =
  let header =
    [ "Instance"; "LB"; "OPT" ]
    @ List.map Gb.name Gb.all_weighted
    @ [ "expected+LS" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.label;
          Printf.sprintf "%.4g" r.lb;
          (match r.opt with Some o -> Printf.sprintf "%.4g" o | None -> "-");
        ]
        @ List.map (fun (_, ratio) -> Tables.fmt_ratio ratio) r.ratios
        @ [ Tables.fmt_ratio r.refined_ratio ])
      rows
  in
  "Weighted SINGLEPROC (ratios to the lower bound; OPT shown when brute force fits):\n\n"
  ^ Tables.render ~header ~rows:body ()
