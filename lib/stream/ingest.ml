(* The streaming tier's front door: given an edge-stream file, decide from
   the sealed header alone — before reading any record — whether the
   instance fits in core.  Small instances are materialized and handed to
   the exact/portfolio tier (the stream format is then just an interchange
   format); large ones are solved by the bounded-memory solvers without the
   CSR ever existing.  The threshold compares the header's CSR estimate
   against a word budget, so the decision is O(1). *)

module Sio = Hyper.Stream_io

type stream_solver = Auto | One_pass | Few_pass

let stream_solver_of_string = function
  | "auto" -> Some Auto
  | "one-pass" -> Some One_pass
  | "few-pass" -> Some Few_pass
  | _ -> None

type tier =
  | In_core_exact  (** materialized, unit bipartite: the exact deadline search *)
  | In_core_portfolio  (** materialized, general: the heuristic portfolio *)
  | Stream_kr of Kr.guarantee  (** solved over the stream, never materialized *)

let tier_name = function
  | In_core_exact -> "incore-exact"
  | In_core_portfolio -> "incore-portfolio"
  | Stream_kr g -> "stream-" ^ Kr.guarantee_name g

type outcome = {
  tier : tier;
  makespan : float;
  lower_bound : float;
  guarantee : string;  (** what the winning tier certifies *)
  factor : float;  (** proven makespan/opt bound; [nan] for heuristics *)
  passes : int;
  edges : int;
  header : Sio.header;
  graph : Hyper.Graph.t option;  (** the materialized instance, in-core tiers only *)
  assignment : int array option;  (** task → processor, streamed singleton tiers *)
}

(* 64 MB of CSR by default: comfortably in-core on anything that runs the
   daemon, and small enough that the exact tier answers interactively. *)
let default_threshold_words = 8_000_000

let c_incore = Obs.Metrics.counter "stream.ingest.incore"
let c_streamed = Obs.Metrics.counter "stream.ingest.streamed"

let () =
  Obs.Prom.describe "stream.ingest.incore" "Stream ingests that fell back to the in-core tier.";
  Obs.Prom.describe "stream.ingest.streamed" "Stream ingests solved by the streaming tier."

let solve_in_core ?jobs h =
  match Hyper.Graph.to_bipartite h with
  | Some g when Bipartite.Graph.is_unit_weighted g && not (Bipartite.Graph.has_isolated_task g)
    ->
      let open Semimatch.Exact_unit in
      ( In_core_exact,
        float_of_int (solve g).makespan,
        float_of_int (Semimatch.Lower_bound.singleproc_unit g),
        Printf.sprintf "%s (%s)"
          (guarantee_name (exact_engine_guarantee default_engine))
          (exact_engine_name default_engine),
        1.0 )
  | _ ->
      let r = Semimatch.Portfolio.solve ?jobs h in
      ( In_core_portfolio,
        r.Semimatch.Portfolio.best_makespan,
        r.Semimatch.Portfolio.lower_bound,
        "portfolio-heuristic",
        Float.nan )

let solve ?jobs ?(threshold_words = default_threshold_words) ?(stream_solver = Auto) path
    =
  let reader = Sio.open_reader path in
  Fun.protect
    ~finally:(fun () -> Sio.close_reader reader)
    (fun () ->
      let hdr = Sio.header reader in
      if not (Sio.sealed hdr) then
        failwith "Stream.Ingest: unsealed stream (writer never closed) — run doctor";
      let csr_words = match Sio.csr_estimate_words hdr with Some w -> w | None -> max_int in
      if csr_words <= threshold_words then begin
        Obs.Metrics.incr c_incore;
        let h = Sio.read_graph reader in
        let tier, makespan, lower_bound, guarantee, factor = solve_in_core ?jobs h in
        {
          tier;
          makespan;
          lower_bound;
          guarantee;
          factor;
          passes = 1;
          edges = hdr.Sio.h_records;
          header = hdr;
          graph = Some h;
          assignment = None;
        }
      end
      else begin
        Obs.Metrics.incr c_streamed;
        let sol =
          if Sio.singleton hdr && Sio.unit_weight hdr then
            match stream_solver with
            | One_pass -> Kr.one_pass reader
            | Few_pass | Auto -> Kr.few_pass reader
          else Kr.online_greedy reader
        in
        {
          tier = Stream_kr sol.Kr.guarantee;
          makespan = sol.Kr.makespan;
          lower_bound = sol.Kr.lower_bound;
          guarantee = Kr.guarantee_name sol.Kr.guarantee;
          factor = sol.Kr.factor;
          passes = sol.Kr.passes;
          edges = sol.Kr.edges;
          header = hdr;
          graph = None;
          assignment = sol.Kr.assignment;
        }
      end)
