(* stream-ingest: one caller alternates Stream.Ingest.solve, with default
   arguments, over two edge-stream files written at set-up with
   Hyper.Stream_io.

   - big: above Ingest.default_threshold_words, so the few-pass Konrad-Rosen
     tier solves it over the stream.  FewgManyg rows (seeded) plus one
     planted edge per task, task a -> processor (a mod p): the planted
     edges alone give every processor at most ceil(n/p) tasks, which is
     also the pigeonhole lower bound, so the optimum is ceil(n/p) exactly.
   - small: below the threshold, so it is materialized and solved by the
     in-core exact race.  A HiLo instance (deterministic), the family on
     which the race's first engine is slowest; its optimum is recorded at
     set-up by Gen_hk. *)

open Measure
module S = Semimatch
module Sio = Hyper.Stream_io

let big_n = 600_000
let big_p = 120_000
let big_g = 32
let big_d = 4
let small_n = 5120
let small_p = 256
let small_g = 32
let small_d = 5

type file = {
  name : string;
  path : string;
  records : int;
  opt : int;
  streamed : bool;  (** expected tier *)
  mutable makespan : float;
  mutable factor : float;
  mutable passes : int;
}

let write_big ~seed path =
  let rng = Randkit.Prng.create ~seed:(seed + 1_000_003) in
  let w = Sio.create_writer ~path ~n1:big_n ~n2:big_p () in
  Bipartite.Fewg_manyg.iter_rows rng ~n1:big_n ~n2:big_p ~g:big_g ~d:big_d (fun a row ->
      let planted = a mod big_p in
      if not (Array.mem planted row) then Sio.add w ~task:a ~procs:[| planted |] ~weight:1.0;
      Array.iter (fun u -> Sio.add w ~task:a ~procs:[| u |] ~weight:1.0) row);
  let records = Sio.writer_records w in
  Sio.close_writer w;
  records

let write_small path =
  let w = Sio.create_writer ~path ~n1:small_n ~n2:small_p () in
  let records =
    Hyper.Generate.stream_sp (Randkit.Prng.create ~seed:0) ~family:Hyper.Generate.Hilo ~n:small_n
      ~p:small_p ~g:small_g ~d:small_d ~emit:(fun ~task ~proc ->
        Sio.add w ~task ~procs:[| proc |] ~weight:1.0)
  in
  Sio.close_writer w;
  records

let small_graph path =
  match Hyper.Graph.to_bipartite (Sio.load path) with Some g -> g | None -> assert false

let setup ~seed ~work =
  let big = Filename.concat work "big.sms" and small = Filename.concat work "small.sms" in
  let big_records = write_big ~seed big in
  let small_records = write_small small in
  let small_opt =
    (S.Exact_unit.solve_with ~exact:S.Exact_unit.Gen_hk (small_graph small)).S.Exact_unit.makespan
  in
  let csr path = Option.get (Sio.csr_estimate_words (Sio.header (Sio.open_reader path))) in
  if csr big <= Stream.Ingest.default_threshold_words || csr small > Stream.Ingest.default_threshold_words
  then failwith "stream-ingest: file sizes do not straddle the ingest threshold";
  [|
    {
      name = "big";
      path = big;
      records = big_records;
      opt = (big_n + big_p - 1) / big_p;
      streamed = true;
      makespan = 0.0;
      factor = 0.0;
      passes = 0;
    };
    {
      name = "small";
      path = small;
      records = small_records;
      opt = small_opt;
      streamed = false;
      makespan = 0.0;
      factor = 0.0;
      passes = 0;
    };
  |]

let op f () =
  let o = span "stream.ingest.solve" (fun () -> Stream.Ingest.solve f.path) in
  span "bench.check" (fun () ->
      let open Stream.Ingest in
      let opt = float_of_int f.opt in
      (match (o.tier, f.streamed) with
      | Stream_kr _, true | In_core_exact, false -> ()
      | t, _ -> wrong "%s solved by tier %s" f.name (tier_name t));
      if o.edges <> f.records then wrong "%s: %d edges, wrote %d" f.name o.edges f.records;
      if o.makespan < opt then wrong "%s: makespan %g below the optimum %g" f.name o.makespan opt;
      if f.streamed then begin
        if o.makespan > o.factor *. opt then
          wrong "%s: makespan %g above factor %g x optimum %g" f.name o.makespan o.factor opt
      end
      else if o.makespan <> opt then wrong "%s: makespan %g, optimum %g" f.name o.makespan opt;
      f.makespan <- o.makespan;
      f.factor <- o.factor;
      f.passes <- o.passes)

(* Layer probes, tracing off: a no-op read of the big stream, the few-pass
   solver on its own, the in-core tier's two steps and every exact engine
   on the small file. *)
let probes files =
  let big = files.(0) and small = files.(1) in
  let with_reader path f =
    let r = Sio.open_reader path in
    Fun.protect ~finally:(fun () -> Sio.close_reader r) (fun () -> f r)
  in
  let read_ms =
    Float.min
      (snd (time_ms (fun () -> with_reader big.path (fun r -> Sio.iter r (fun ~task:_ ~procs:_ ~weight:_ -> ())))))
      (snd (time_ms (fun () -> with_reader big.path (fun r -> Sio.iter r (fun ~task:_ ~procs:_ ~weight:_ -> ())))))
  in
  let sol, kr_ms = time_ms (fun () -> with_reader big.path Stream.Kr.few_pass) in
  let passes = sol.Stream.Kr.passes in
  let scanned = float_of_int (passes * big.records) in
  let g, materialize_ms = time_ms (fun () -> small_graph small.path) in
  let (_, winner), race_ms = time_ms (fun () -> S.Portfolio.solve_exact_unit ~jobs:1 g) in
  Printf.printf "\nstream: big %d records, read %.1f ns/edge, few-pass %d passes = %.0f ms (%.0f%% reading)\n"
    big.records (read_ms *. 1e6 /. float_of_int big.records) passes kr_ms
    (100.0 *. float_of_int passes *. read_ms /. kr_ms);
  Printf.printf "stream: small %d records, materialize %.1f ms, in-core race (jobs 1, won by %s) %.1f ms\n"
    small.records materialize_ms (S.Exact_unit.exact_engine_name winner) race_ms;
  Printf.printf "exact engines on the small file (ms):";
  let engines =
    List.map
      (fun exact ->
        let name = S.Exact_unit.exact_engine_name exact in
        let _, ms = time_ms (fun () -> S.Exact_unit.solve_with ~exact g) in
        Printf.printf " %s=%.1f" name ms;
        metric (Printf.sprintf "semimatch.exact.engine.%s_ms" name) "ms" ms)
      S.Exact_unit.all_exact_engines
  in
  print_newline ();
  [
    metric "hyper.stream_io.read_ns_per_edge" "ns" (read_ms *. 1e6 /. float_of_int big.records);
    metric "stream.kr.passes" "count" (float_of_int passes);
    metric "stream.kr.pass_work_ns_per_edge" "ns"
      ((kr_ms -. (float_of_int passes *. read_ms)) *. 1e6 /. scanned);
    metric "stream.kr.state_words" "words" (float_of_int sol.Stream.Kr.state_words);
    metric "stream.ingest.materialize_ms" "ms" materialize_ms;
    metric "stream.ingest.incore_race_ms" "ms" race_ms;
  ]
  @ engines

let run ~seed ~seconds ~trace ~work =
  let files, setup_ms = repeated_setup (fun () -> setup ~seed ~work) in
  (* warm-up: both files in the page cache, the heap grown to the in-core
     graph *)
  let (), warm_ms = time_ms (fun () -> Array.iter (fun f -> op f ()) files) in
  let loop = closed_loop ~seconds ~trace (Array.map (fun f -> (f.name, op f)) files) in
  let lat = loop.scaled_ms in
  let p50 = cycle_median loop ~ops_per_cycle:(Array.length files) in
  (* Each file's median latency over cycles.  A run holds about 12 ops, too
     few for a percentile tail, so the tail is the slower file's median;
     the two files take about the same time, so a regression of either one
     shows in it at full size. *)
  let cycles = by_cycle loop ~ops_per_cycle:(Array.length files) in
  let file_p50 = Array.mapi (fun i _ -> median (Array.map (fun c -> c.(i)) cycles)) files in
  let slower = Array.fold_left Float.max 0.0 file_p50 in
  let edges_done =
    float_of_int (Array.fold_left (fun acc f -> acc + f.records) 0 files)
    *. (float_of_int (Array.length lat) /. float_of_int (Array.length files))
  in
  Printf.printf "stream-ingest: %d cycles\n" loop.cycles;
  Array.iter
    (fun f ->
      Printf.printf "  %-6s records=%-8d opt=%-4d makespan=%-5g factor=%-5.1f passes=%d %s\n" f.name f.records
        f.opt f.makespan f.factor f.passes
        (if f.streamed then "streamed" else "in-core"))
    files;
  print_per_op loop (Array.map (fun f -> f.name) files);
  print_speed loop.kernel_ms;
  print_tail ~pct:100.0 "ingest latency" loop.measured_ms;
  print_tail ~pct:100.0 "ingest latency, scaled" lat;
  Array.iteri (fun i f -> Printf.printf "  %-6s median over cycles (scaled): %.3f ms\n" f.name file_p50.(i)) files;
  let e2e =
    [
      metric "setup_s" "s" ((setup_ms +. warm_ms) *. run_scale loop.kernel_ms /. 1000.0);
      metric "solve_p50_ms" "ms" p50;
      metric "solve_tail_ms" "ms" slower;
      metric "request_p50_ms" "ms" p50;
      metric "request_tail_ms" "ms" slower;
      metric "makespan_ratio" "ratio"
        (geomean (Array.to_list (Array.map (fun f -> f.makespan /. float_of_int f.opt) files)));
      metric "edges_per_s" "edges/s" (edges_done /. (sum lat /. 1000.0));
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric "ok_frac" "frac" (ok_frac ~attempted:loop.l_attempted ~failed:loop.l_failed);
    ]
  in
  let layers =
    if not trace then []
    else begin
      print_ledger ~title:"stream-ingest" loop;
      [
        metric "trace.overhead_pct" "%" (overhead_pct loop);
        metric "stream.ingest.solve_ms" "ms" (per_op_ms loop "stream.ingest.solve");
      ]
      @ probes files
    end
  in
  Array.iter (fun f -> Sys.remove f.path) files;
  { attempted = loop.l_attempted; failed = loop.l_failed; wrong_answers = loop.l_wrong; e2e; layers }
