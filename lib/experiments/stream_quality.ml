(* Quality-vs-memory for the streaming tier: each instance is written to a
   temporary edge-stream file, solved by the exact in-core tier (the
   optimum) and by each bounded-memory streaming solver over the very same
   bytes, and the table reports the makespan ratios next to the memory the
   stream avoided — solver state words vs the CSR estimate. *)

module Sio = Hyper.Stream_io
module Kr = Stream.Kr

let family = function `Fewg_manyg -> Hyper.Generate.Fewg_manyg | `Hilo -> Hyper.Generate.Hilo

(* Same replicate-stream derivation as Instances: name and seed both feed
   the PRNG so no two specs share a stream. *)
let prng ~seed name = Randkit.Prng.create ~seed:((seed * 1_000_003) lxor Hashtbl.hash (name : string))

let with_stream_file f =
  let path = Filename.temp_file "semimatch-exp-" ".sms" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

type row = {
  name : string;
  n : int;
  p : int;
  edges : int;
  csr_words : int;
  opt : float;
  one_ratio : float;  (** median one-pass makespan / opt *)
  one_factor : float;  (** the proven (2⌈√n⌉+1) bound *)
  one_words : int;
  few_ratio : float;
  few_factor : float;  (** the proven 4(log₂n+3) bound *)
  few_words : int;
  few_passes : int;
}

let write_sp_stream ~seed (spec : Instances.singleproc_spec) path =
  let rng = prng ~seed spec.Instances.sp_name in
  let w = Sio.create_writer ~path ~n1:spec.Instances.sp_n ~n2:spec.Instances.sp_p () in
  ignore
    (Hyper.Generate.stream_sp rng ~family:(family spec.Instances.sp_family)
       ~n:spec.Instances.sp_n ~p:spec.Instances.sp_p ~g:spec.Instances.sp_g
       ~d:spec.Instances.sp_d ~emit:(fun ~task ~proc ->
         Sio.add w ~task ~procs:[| proc |] ~weight:1.0));
  Sio.close_writer w;
  Sio.validate path

let solve_with solver path =
  let r = Sio.open_reader path in
  Fun.protect ~finally:(fun () -> Sio.close_reader r) (fun () -> solver r)

let run_row ?(seeds = 3) (spec : Instances.singleproc_spec) =
  let replicates =
    List.init seeds (fun seed ->
        with_stream_file (fun path ->
            let report = write_sp_stream ~seed spec path in
            let header = Option.get report.Sio.r_header in
            let csr = Option.value (Sio.csr_estimate_words header) ~default:0 in
            (* max_int words: the threshold can never lose, so the in-core
               exact tier answers and its makespan is the optimum. *)
            let exact = Stream.Ingest.solve ~threshold_words:max_int path in
            let one = solve_with Kr.one_pass path in
            let few = solve_with Kr.few_pass path in
            (report.Sio.r_records, csr, exact.Stream.Ingest.makespan, one, few)))
  in
  let medians f = Ds.Stats.median (Array.of_list (List.map f replicates)) in
  let _, csr_words, _, one0, few0 =
    match replicates with r :: _ -> r | [] -> invalid_arg "Stream_quality.run_row: seeds = 0"
  in
  {
    name = spec.Instances.sp_name;
    n = spec.Instances.sp_n;
    p = spec.Instances.sp_p;
    edges = int_of_float (medians (fun (e, _, _, _, _) -> float_of_int e));
    csr_words;
    opt = medians (fun (_, _, opt, _, _) -> opt);
    one_ratio = medians (fun (_, _, opt, one, _) -> one.Kr.makespan /. opt);
    one_factor = one0.Kr.factor;
    one_words = one0.Kr.state_words;
    few_ratio = medians (fun (_, _, opt, _, few) -> few.Kr.makespan /. opt);
    few_factor = few0.Kr.factor;
    few_words = few0.Kr.state_words;
    few_passes = int_of_float (medians (fun (_, _, _, _, few) -> float_of_int few.Kr.passes));
  }

let run ?seeds ?(scale = 1) ?d () =
  Instances.paper_grid_singleproc ?d ()
  |> List.map (Instances.scaled_singleproc scale)
  |> List.map (run_row ?seeds)

let pct num den = if den <= 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int num /. float_of_int den)

let header =
  [
    "Instance"; "edges"; "CSR words"; "OPT"; "1-pass/OPT"; "bound"; "few/OPT"; "bound";
    "passes"; "state(1p)"; "state(few)"; "state/CSR";
  ]

let rows_of rows =
  List.map
    (fun r ->
      [
        r.name;
        string_of_int r.edges;
        string_of_int r.csr_words;
        Printf.sprintf "%.4g" r.opt;
        Tables.fmt_ratio r.one_ratio;
        Printf.sprintf "%.0f" r.one_factor;
        Tables.fmt_ratio r.few_ratio;
        Printf.sprintf "%.0f" r.few_factor;
        string_of_int r.few_passes;
        string_of_int r.one_words;
        string_of_int r.few_words;
        pct (max r.one_words r.few_words) r.csr_words;
      ])
    rows

let render rows =
  "Streaming quality vs memory: makespan ratio to the exact optimum next to\n\
   the working state each solver kept, as a fraction of the CSR it avoided:\n\n"
  ^ Tables.render ~header ~rows:(rows_of rows) ()

let to_csv rows = Tables.csv ~header ~rows:(rows_of rows)

(* ---- general MULTIPROC streams: the online greedy has no proven factor,
   so its quality is measured against the in-core portfolio and the
   streamed refined lower bound on the same instance. ---- *)

type online_row = {
  o_name : string;
  o_edges : int;
  o_lb : float;  (** streamed refined LB *)
  o_online : float;
  o_portfolio : float;
  o_words : int;
  o_csr_words : int;
}

let run_online_row ?(seeds = 3) (spec : Instances.multiproc_spec) =
  let replicates =
    List.init seeds (fun seed ->
        with_stream_file (fun path ->
            let rng = prng ~seed spec.Instances.name in
            let w = Sio.create_writer ~path ~n1:spec.Instances.n ~n2:spec.Instances.p () in
            let edges =
              Hyper.Generate.stream rng ~family:spec.Instances.family ~n:spec.Instances.n
                ~p:spec.Instances.p ~dv:spec.Instances.dv ~dh:spec.Instances.dh
                ~g:spec.Instances.g ~weights:Hyper.Weights.Unit
                ~emit:(fun ~task ~procs ~weight -> Sio.add w ~task ~procs ~weight)
            in
            Sio.close_writer w;
            let online = solve_with (Kr.online_greedy ?on_choice:None) path in
            let incore = Stream.Ingest.solve ~threshold_words:max_int path in
            let csr =
              Option.value (Sio.csr_estimate_words incore.Stream.Ingest.header) ~default:0
            in
            (edges, online, incore.Stream.Ingest.makespan, csr)))
  in
  let medians f = Ds.Stats.median (Array.of_list (List.map f replicates)) in
  let _, online0, _, csr0 =
    match replicates with r :: _ -> r | [] -> invalid_arg "Stream_quality.run_online_row"
  in
  {
    o_name = spec.Instances.name;
    o_edges = int_of_float (medians (fun (e, _, _, _) -> float_of_int e));
    o_lb = medians (fun (_, o, _, _) -> o.Kr.lower_bound);
    o_online = medians (fun (_, o, _, _) -> o.Kr.makespan);
    o_portfolio = medians (fun (_, _, m, _) -> m);
    o_words = online0.Kr.state_words;
    o_csr_words = csr0;
  }

let run_online ?seeds ?(scale = 1) () =
  Instances.paper_grid ()
  |> List.map (Instances.scaled scale)
  |> List.map (run_online_row ?seeds)

let online_header =
  [ "Instance"; "edges"; "LB"; "online"; "portfolio"; "online/LB"; "online/port"; "state/CSR" ]

let online_rows_of rows =
  List.map
    (fun r ->
      [
        r.o_name;
        string_of_int r.o_edges;
        Printf.sprintf "%.4g" r.o_lb;
        Printf.sprintf "%.4g" r.o_online;
        Printf.sprintf "%.4g" r.o_portfolio;
        Tables.fmt_ratio (r.o_online /. r.o_lb);
        Tables.fmt_ratio (r.o_online /. r.o_portfolio);
        pct r.o_words r.o_csr_words;
      ])
    rows

let render_online rows =
  "Online greedy over general MULTIPROC streams (no proven factor):\n\n"
  ^ Tables.render ~header:online_header ~rows:(online_rows_of rows) ()

let online_to_csv rows = Tables.csv ~header:online_header ~rows:(online_rows_of rows)
