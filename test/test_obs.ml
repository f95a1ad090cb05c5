(* The telemetry substrate: counters must agree with the engines' own stats
   on a fixed-seed instance, the disabled path must record nothing, the
   histogram percentile math must be sane, and the JSON sink must round-trip
   through Obs.Json — including the CLI's `profile --stats=json` output. *)

module G = Bipartite.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Seed 1 with these tight capacities makes the Karp–Sipser-style greedy
   init fall short, so Hopcroft–Karp performs real augmentations (2 on this
   instance) and the path-length histogram is non-empty. *)
let caps () = Array.make 8 5

let fixed_graph () =
  let rng = Randkit.Prng.create ~seed:1 in
  let edges = ref [] in
  for v = 0 to 39 do
    for u = 0 to 7 do
      if Randkit.Prng.float rng 1.0 < 0.3 then edges := (v, u) :: !edges
    done
  done;
  G.unit_weights ~n1:40 ~n2:8 ~edges:!edges

(* Counter handles interned here read the values the engines record. *)
let hk_phases = Obs.Metrics.counter "matching.hk.phases"
let hk_augmentations = Obs.Metrics.counter "matching.hk.augmentations"
let pr_relabels = Obs.Metrics.counter "matching.pr.relabels"
let dfs_scans = Obs.Metrics.counter "matching.dfs.scans"
let hk_path_len = Obs.Metrics.histogram "matching.hk.aug_path_len"

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  Obs.reset ();
  let g = fixed_graph () in
  List.iter
    (fun engine -> ignore (Matching.solve ~engine ~capacities:(caps ()) g))
    Matching.all_engines;
  ignore (Obs.Span.timed "should-not-record" (fun () -> 1 + 1));
  check_int "hk phases untouched" 0 (Obs.Metrics.value hk_phases);
  check_int "pr relabels untouched" 0 (Obs.Metrics.value pr_relabels);
  check_int "dfs scans untouched" 0 (Obs.Metrics.value dfs_scans);
  check_int "histogram untouched" 0 (Obs.Metrics.count hk_path_len);
  check_int "span ring empty" 0 (List.length (Obs.Span.records ()));
  check_int "no spans recorded" 0 (Obs.Span.recorded ())

(* Obs counters and the engines' own Engine_common tallies are incremented at
   the same program points, so on any instance they must agree exactly. *)
let test_counters_match_engine_stats () =
  let g = fixed_graph () in
  Obs.with_recording (fun () ->
      let _, stats =
        Matching.solve_with_stats ~engine:Matching.Hopcroft_karp ~capacities:(caps ()) g
      in
      check "instance forces augmentations" (stats.Matching.augmentations > 0) true;
      check_int "hk phases" stats.Matching.phases (Obs.Metrics.value hk_phases);
      check_int "hk augmentations" stats.Matching.augmentations
        (Obs.Metrics.value hk_augmentations);
      check_int "one path length per augmentation" stats.Matching.augmentations
        (Obs.Metrics.count hk_path_len);
      check "augmenting paths have odd length"
        (Float.rem (Obs.Metrics.minimum hk_path_len) 2.0 = 1.0) true);
  (* with_recording restores the previous enabled state but keeps the data. *)
  check "data survives with_recording" (Obs.Metrics.value hk_phases > 0) true;
  check "recording switched back off" (Obs.is_enabled ()) false

let test_histogram_percentiles () =
  Obs.with_recording (fun () ->
      let h = Obs.Metrics.histogram "test.histogram" in
      List.iter (Obs.Metrics.observe h) [ 0.5; 2.0; 8.0; 32.0 ];
      check_int "count" 4 (Obs.Metrics.count h);
      Alcotest.(check (float 1e-9)) "sum" 42.5 (Obs.Metrics.sum h);
      Alcotest.(check (float 1e-9)) "min" 0.5 (Obs.Metrics.minimum h);
      Alcotest.(check (float 1e-9)) "max" 32.0 (Obs.Metrics.maximum h);
      let q p = Obs.Metrics.quantile h ~q:p in
      Alcotest.(check (float 1e-9)) "p0 clamps to min" 0.5 (q 0.0);
      Alcotest.(check (float 1e-9)) "p100 clamps to max" 32.0 (q 1.0);
      check "quantiles are monotone" (q 0.25 <= q 0.5 && q 0.5 <= q 0.9 && q 0.9 <= q 1.0) true;
      check "p50 within observed range" (q 0.5 >= 0.5 && q 0.5 <= 32.0) true;
      (* A single-observation histogram answers every quantile exactly. *)
      let one = Obs.Metrics.histogram "test.histogram.single" in
      Obs.Metrics.observe one 7.0;
      List.iter
        (fun p -> Alcotest.(check (float 1e-9)) "degenerate quantile" 7.0
            (Obs.Metrics.quantile one ~q:p))
        [ 0.0; 0.5; 0.99; 1.0 ])

let test_span_aggregates () =
  Obs.with_recording (fun () ->
      for _ = 1 to 3 do
        Obs.Span.timed "outer" (fun () -> Obs.Span.timed "inner" (fun () -> Sys.opaque_identity ()))
      done;
      check_int "six spans recorded" 6 (Obs.Span.recorded ());
      let records = Obs.Span.records () in
      check "inner spans nest at depth 1"
        (List.for_all (fun r -> r.Obs.Span.depth = 1)
           (List.filter (fun r -> r.Obs.Span.r_name = "inner") records))
        true;
      let aggs = Obs.Span.aggregates () in
      let find name = List.find (fun a -> a.Obs.Span.a_name = name) aggs in
      check_int "outer count" 3 (find "outer").Obs.Span.a_count;
      check_int "inner count" 3 (find "inner").Obs.Span.a_count;
      check "durations are non-negative"
        (List.for_all (fun r -> Obs.Span.duration_s r >= 0.0) records)
        true)

let parse_lines output =
  String.split_on_char '\n' output
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  |> List.map Obs.Json.of_string

let member_str name json =
  match Obs.Json.member name json with Some j -> Obs.Json.to_str j | None -> None

let member_num name json =
  match Obs.Json.member name json with Some j -> Obs.Json.to_float j | None -> None

(* Counters bumped in-process must come back unchanged through render Json →
   of_string: the full machine-format round trip. *)
let test_json_sink_roundtrip () =
  Obs.with_recording (fun () ->
      let g = fixed_graph () in
      ignore (Matching.solve ~engine:Matching.Push_relabel g);
      ignore (Obs.Span.timed "roundtrip.span" (fun () -> ()));
      let rows = parse_lines (Obs.Sink.render ~label:"rt" Obs.Sink.Json) in
      check "sink emitted rows" (rows <> []) true;
      List.iter
        (fun row ->
          check "every row is labelled" (member_str "label" row = Some "rt") true;
          check "every row has a type"
            (match member_str "type" row with
            | Some ("counter" | "histogram" | "span") -> true
            | _ -> false)
            true)
        rows;
      let counter_value name =
        List.find_map
          (fun row ->
            if member_str "type" row = Some "counter" && member_str "name" row = Some name then
              member_num "value" row
            else None)
          rows
      in
      check "pr relabels round-trip"
        (counter_value "matching.pr.relabels"
        = Some (float_of_int (Obs.Metrics.value pr_relabels)))
        true;
      check "span aggregate present"
        (List.exists
           (fun row ->
             member_str "type" row = Some "span" && member_str "name" row = Some "roundtrip.span")
           rows)
        true)

let test_json_parser () =
  let roundtrip s = Obs.Json.to_string (Obs.Json.of_string s) in
  Alcotest.(check string) "object" {|{"a":1,"b":[true,null,"x"]}|}
    (roundtrip {| { "a" : 1 , "b" : [ true , null , "x" ] } |});
  Alcotest.(check string) "negative exponent" "0.001" (roundtrip "1e-3");
  check "escapes survive"
    (Obs.Json.of_string {|"a\"b\\c"|} = Obs.Json.Str {|a"b\c|})
    true;
  List.iter
    (fun bad ->
      check ("rejects " ^ bad)
        (match Obs.Json.of_string bad with exception Failure _ -> true | _ -> false)
        true)
    [ ""; "{"; "[1,]"; "{\"a\"}"; "tru"; "1 2" ]

(* NaN has no JSON literal: empty-histogram statistics must come out as
   [null] and still round-trip through Obs.Json; the CSV sink leaves the
   cell empty and the table prints "-". *)
let test_nan_sentinels () =
  Obs.with_recording (fun () ->
      ignore (Obs.Metrics.histogram "empty.histogram");
      let json_out = Obs.Sink.render Obs.Sink.Json in
      check "sink output contains no bare nan"
        (not (Test_cli.contains ~needle:"nan" json_out))
        true;
      let row =
        List.find
          (fun r -> member_str "name" r = Some "empty.histogram")
          (parse_lines json_out)
      in
      check "empty histogram min is null" (Obs.Json.member "min" row = Some Obs.Json.Null) true;
      check "empty histogram mean is null" (Obs.Json.member "mean" row = Some Obs.Json.Null) true;
      (* The full line re-parses and re-renders identically: null is stable. *)
      let reprinted = Obs.Json.to_string (Obs.Json.of_string (Obs.Json.to_string row)) in
      Alcotest.(check string) "null round-trips" (Obs.Json.to_string row) reprinted;
      let csv = Obs.Sink.render Obs.Sink.Csv in
      check "CSV leaves nan cells empty"
        (List.exists
           (fun line ->
             (* count=0, sum=0, then empty min/max/mean cells *)
             Test_cli.contains ~needle:"empty.histogram" line
             && Test_cli.contains ~needle:",0,0,,," line
             && not (Test_cli.contains ~needle:"nan" line))
           (String.split_on_char '\n' csv))
        true;
      let table = Obs.Sink.render Obs.Sink.Table in
      check "table prints a dash" (Test_cli.contains ~needle:"min=-" table) true)

(* RFC 4180: a hostile --stats label full of quotes and separators must be
   quoted, not splice extra CSV columns. *)
let test_csv_hostile_label () =
  Obs.with_recording (fun () ->
      Obs.Metrics.incr (Obs.Metrics.counter "csv.quoting.counter");
      let label = {|evil "label", with, commas|} in
      let csv = Obs.Sink.render ~label Obs.Sink.Csv in
      let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
      let header = List.hd lines in
      let cols = List.length (String.split_on_char ',' header) in
      check "label is RFC 4180 quoted"
        (Test_cli.contains ~needle:{|"evil ""label"", with, commas"|} csv)
        true;
      (* Counting commas outside quotes: every data row splits into exactly
         the header's column count. *)
      let fields line =
        let n = ref 1 and in_quotes = ref false in
        String.iter
          (fun c ->
            if c = '"' then in_quotes := not !in_quotes
            else if c = ',' && not !in_quotes then incr n)
          line;
        !n
      in
      List.iter
        (fun line -> check_int "row width matches header" cols (fields line))
        (List.tl lines))

let test_events_basics () =
  Obs.with_recording (fun () ->
      Obs.Events.emit "test.event"
        [ Obs.Events.str "who" "obs-test"; Obs.Events.int "n" 3; Obs.Events.bool "ok" true ];
      Obs.Events.emit ~level:Obs.Events.Warn "test.warning" [ Obs.Events.num "x" 1.5 ];
      check_int "two events recorded" 2 (Obs.Events.recorded ());
      let records = Obs.Events.records () in
      let first = List.hd records in
      check "fields survive"
        (first.Obs.Events.e_fields
        = [ ("who", Obs.Json.Str "obs-test"); ("n", Obs.Json.Num 3.0); ("ok", Obs.Json.Bool true) ])
        true;
      check "dom is the recording domain" (first.Obs.Events.e_dom = (Domain.self () :> int)) true;
      let json = Obs.Events.to_json first in
      check "to_json carries the name" (member_str "event" json = Some "test.event") true;
      check "to_json carries the fields" (member_str "who" json = Some "obs-test") true;
      (* Level gating at emit time. *)
      Obs.Events.set_level Obs.Events.Warn;
      Fun.protect
        ~finally:(fun () -> Obs.Events.set_level Obs.Events.Debug)
        (fun () ->
          Obs.Events.emit ~level:Obs.Events.Info "test.filtered" [];
          check_int "below-level events are dropped" 2 (Obs.Events.recorded ())));
  (* Disabled: emit must record nothing. *)
  Obs.set_enabled false;
  Obs.reset ();
  Obs.Events.emit "test.disabled" [];
  check_int "disabled events record nothing" 0 (Obs.Events.recorded ())

(* End-to-end: the CLI's profile subcommand with --stats=json must emit
   machine-readable telemetry for every profiled algorithm. *)
let test_cli_profile_stats_json () =
  Test_cli.with_temp (fun path ->
      ignore
        (Test_cli.expect_ok
           (Test_cli.run_capture
              [ "gen"; "--tasks"; "40"; "--procs"; "8"; "--groups"; "2"; "--seed"; "7"; "-o"; path ]));
      let out = Test_cli.expect_ok (Test_cli.run_capture [ "profile"; "--stats=json"; path ]) in
      let rows = parse_lines out in
      check "profile emitted JSON rows" (List.length rows > 10) true;
      let labels =
        List.filter_map (fun row -> member_str "label" row) rows
        |> List.sort_uniq compare
      in
      check "per-algorithm labels present"
        (List.mem "SGH" labels && List.mem "EVG" labels)
        true;
      check "hk phase counter appears"
        (List.exists (fun row -> member_str "name" row = Some "matching.hk.phases") rows
        || List.exists (fun row -> member_str "name" row = Some "semimatch.greedy.candidates") rows)
        true)

(* Quantile edge cases: empty, domain errors, clamping, and the sharding
   invariant — observations split across domains merge to exactly the
   buckets (hence quantiles) a single shard would hold. *)
let test_quantile_edge_cases () =
  Obs.with_recording (fun () ->
      let empty = Obs.Metrics.histogram "edge.empty" in
      check "empty histogram quantile is nan"
        (Float.is_nan (Obs.Metrics.quantile empty ~q:0.5))
        true;
      let h = Obs.Metrics.histogram "edge.clamp" in
      List.iter (Obs.Metrics.observe h) [ 3.0; 12.0 ];
      Alcotest.(check (float 1e-9)) "q=0 clamps to min" 3.0 (Obs.Metrics.quantile h ~q:0.0);
      Alcotest.(check (float 1e-9)) "q=1 clamps to max" 12.0 (Obs.Metrics.quantile h ~q:1.0);
      List.iter
        (fun q ->
          check
            (Printf.sprintf "q=%g is rejected" q)
            (match Obs.Metrics.quantile h ~q with
            | exception Invalid_argument _ -> true
            | _ -> false)
            true)
        [ -0.01; 1.01; Float.nan ];
      (* Same data, two shards: half observed on a spawned domain.  Bucket
         merging is exact addition, so every quantile matches the
         single-shard reference bit-for-bit. *)
      let data = [ 1.0; 3.0; 9.0; 27.0; 81.0; 243.0 ] in
      let reference = Obs.Metrics.histogram "edge.single_shard" in
      List.iter (Obs.Metrics.observe reference) data;
      let sharded = Obs.Metrics.histogram "edge.two_shards" in
      let first, second = (List.filteri (fun i _ -> i < 3) data, List.filteri (fun i _ -> i >= 3) data) in
      List.iter (Obs.Metrics.observe sharded) first;
      Domain.join
        (Domain.spawn (fun () -> List.iter (Obs.Metrics.observe sharded) second));
      check_int "merged count" (Obs.Metrics.count reference) (Obs.Metrics.count sharded);
      List.iter
        (fun q ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "merged quantile q=%g" q)
            (Obs.Metrics.quantile reference ~q)
            (Obs.Metrics.quantile sharded ~q))
        [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ])

(* Every fork-join batch spawns fresh helper domains, and each helper that
   records gets a shard.  An exited helper's shard is folded into one
   retired shard, so the shard list stays bounded while the totals stay
   exact. *)
let test_exited_shards_retire () =
  let c = Obs.Metrics.counter "test.obs.retired_shards" in
  let h = Obs.Metrics.histogram "test.obs.retired_shards_hist" in
  Obs.with_recording (fun () ->
      let batches = 200 in
      for b = 1 to batches do
        (* A barrier: neither task records before both have started, so the
           calling domain and the helper each take one. *)
        let arrived = Atomic.make 0 in
        let task () =
          Atomic.incr arrived;
          while Atomic.get arrived < 2 do
            Domain.cpu_relax ()
          done;
          Obs.Metrics.incr c;
          Obs.Metrics.observe h (float_of_int b)
        in
        Parpool.Pool.run ~jobs:2 [| task; task |]
      done;
      check_int "counter total" (2 * batches) (Obs.Metrics.value c);
      check_int "histogram count" (2 * batches) (Obs.Metrics.count h);
      Alcotest.(check (float 0.0))
        "histogram sum"
        (float_of_int (batches * (batches + 1)))
        (Obs.Metrics.sum h);
      Alcotest.(check (float 0.0)) "histogram min" 1.0 (Obs.Metrics.minimum h);
      Alcotest.(check (float 0.0)) "histogram max" (float_of_int batches) (Obs.Metrics.maximum h);
      check "at most 2 shards" true (Obs.Metrics.shard_count () <= 2))

(* When the event ring laps itself the oldest records vanish from any later
   render; the [events.dropped] counter makes that truncation visible. *)
let test_events_dropped_counter () =
  Obs.with_recording (fun () ->
      Obs.reset ();
      Obs.Events.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Obs.Events.set_capacity 8192)
        (fun () ->
          let dropped = Obs.Metrics.counter "events.dropped" in
          let before = Obs.Metrics.value dropped in
          List.iter
            (fun i -> Obs.Events.emit "drop.test" [ Obs.Events.int "i" i ])
            (List.init 10 Fun.id);
          Alcotest.(check int) "overwrites counted" 6 (Obs.Metrics.value dropped - before);
          Alcotest.(check int) "ring keeps the newest capacity-many" 4
            (List.length (Obs.Events.records ()));
          check "exposition carries the drop counter" true
            (Test_cli.contains ~needle:"semimatch_events_dropped_total" (Obs.Prom.render ()))))

(* The sink layout is a machine contract: golden-pin the CSV header and the
   histogram JSON keys, p95 included. *)
let test_sink_layout_p95 () =
  Obs.with_recording (fun () ->
      let h = Obs.Metrics.histogram "layout.h" in
      List.iter (Obs.Metrics.observe h) (List.init 100 (fun i -> float_of_int (i + 1)));
      let csv = Obs.Sink.render Obs.Sink.Csv in
      Alcotest.(check string) "CSV header"
        "type,name,value,count,sum,min,max,mean,p50,p90,p95,p99,total_s,mean_s"
        (List.hd (String.split_on_char '\n' csv));
      let row =
        List.find
          (fun r -> member_str "name" r = Some "layout.h")
          (parse_lines (Obs.Sink.render Obs.Sink.Json))
      in
      Alcotest.(check (list string)) "histogram JSON keys"
        [ "type"; "name"; "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p95"; "p99" ]
        (match row with Obs.Json.Obj fields -> List.map fst fields | _ -> []);
      (* p95 is the real 0.95-quantile, between p90 and p99. *)
      let p90 = Option.get (member_num "p90" row)
      and p95 = Option.get (member_num "p95" row)
      and p99 = Option.get (member_num "p99" row) in
      Alcotest.(check (float 0.0)) "p95 matches quantile" (Obs.Metrics.quantile h ~q:0.95) p95;
      check "p90 <= p95 <= p99" (p90 <= p95 && p95 <= p99) true;
      check "table prints p95" (Test_cli.contains ~needle:"p95=" (Obs.Sink.render Obs.Sink.Table))
        true)

(* Prometheus exposition: a render of live metrics passes the lint, and the
   lint actually rejects the malformations it exists to catch. *)
let test_prom_render_and_lint () =
  Obs.with_recording (fun () ->
      Obs.reset ();
      let c = Obs.Metrics.counter "prom.test.counter" in
      Obs.Metrics.add c 42;
      let h = Obs.Metrics.histogram "prom.test.hist_us" in
      List.iter (Obs.Metrics.observe h) [ 0.5; 3.0; 3.0; 700.0 ];
      ignore (Obs.Span.timed "prom.test.span" (fun () -> Sys.opaque_identity ()));
      let text =
        Obs.Prom.render
          ~gauges:
            [
              ("prom.test.gauge", [], 1.5);
              ("prom.test.labeled", [ ("session", {|we"ird|}) ], 2.0);
            ]
          ()
      in
      (match Obs.Prom.lint text with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "live render fails lint: %s" msg);
      let has needle = Test_cli.contains ~needle text in
      check "counter HELP line" true (has "# HELP semimatch_prom_test_counter_total");
      Obs.Prom.describe "prom.test.counter" "A counter described for the test.";
      check "described HELP text" true
        (Test_cli.contains ~needle:"A counter described for the test." (Obs.Prom.render ()));
      check "counter family" true (has "# TYPE semimatch_prom_test_counter_total counter");
      check "counter value" true (has "semimatch_prom_test_counter_total 42");
      check "histogram family" true (has "# TYPE semimatch_prom_test_hist_us histogram");
      check "+Inf bucket equals count" true (has {|semimatch_prom_test_hist_us_bucket{le="+Inf"} 4|});
      check "histogram count" true (has "semimatch_prom_test_hist_us_count 4");
      check "gauge" true (has "semimatch_prom_test_gauge 1.5");
      check "label value escaped" true (has {|session="we\"ird"|});
      check "span seconds total" true (has "semimatch_span_prom_test_span_seconds_total"));
  let expect_bad name text =
    match Obs.Prom.lint text with
    | Ok () -> Alcotest.failf "lint accepted %s" name
    | Error _ -> ()
  in
  expect_bad "duplicate TYPE"
    "# HELP foo a\n# TYPE foo counter\nfoo 1\n# HELP foo a\n# TYPE foo counter\nfoo 2\n";
  expect_bad "undeclared family" "# HELP foo a\n# TYPE foo counter\nfoo 1\nbar 2\n";
  expect_bad "TYPE without HELP" "# TYPE foo counter\nfoo 1\n";
  expect_bad "duplicate HELP" "# HELP foo a\n# HELP foo b\n# TYPE foo counter\nfoo 1\n";
  expect_bad "non-monotone le buckets"
    "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
  expect_bad "decreasing cumulative counts"
    "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
  expect_bad "+Inf disagrees with count"
    "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
  expect_bad "non-numeric value" "# HELP foo a\n# TYPE foo counter\nfoo one\n";
  match Obs.Prom.lint "# HELP ok a counter\n# TYPE ok counter\nok 1\nok{label=\"x\"} 2\n" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "labelled samples under one family must pass: %s" msg

(* Scrapes taken while a second domain observes into the same histogram
   still lint: a scrape's finite [le] buckets, its [+Inf] bucket and its
   [_count] all come from one merge, so none can run ahead of another. *)
let test_prom_scrape_while_observing () =
  Obs.with_recording (fun () ->
      Obs.reset ();
      let h = Obs.Metrics.histogram "prom.test.racing_us" in
      let stop = Atomic.make false in
      let observer =
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              Obs.Metrics.observe h (float_of_int (!i land 1023));
              incr i
            done)
      in
      let failure =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join observer)
          (fun () ->
            while Obs.Metrics.count h = 0 do
              Domain.cpu_relax ()
            done;
            let failure = ref None in
            for _ = 1 to 300 do
              if !failure = None then
                match Obs.Prom.lint (Obs.Prom.render ()) with
                | Ok () -> ()
                | Error msg -> failure := Some msg
            done;
            !failure)
      in
      match failure with
      | None -> ()
      | Some msg -> Alcotest.failf "scrape during observation fails lint: %s" msg)

(* The greedies add their counters in bulk, one hyperedge evaluation and
   one pin scan each; local search counts the settled tasks it skips, which
   its second pass onward always has on this instance. *)
let test_search_counters () =
  let module Gh = Semimatch.Greedy_hyper in
  let module I = Experiments.Instances in
  let spec = I.scaled 8 (List.find (fun s -> s.I.name = "MG-20-4-MP") (I.paper_grid ())) in
  let h = I.generate_multiproc ~seed:4 ~weights:Hyper.Weights.Unit spec in
  let value name = Obs.Metrics.value (Obs.Metrics.counter name) in
  Obs.with_recording (fun () ->
      ignore (Gh.run Gh.Sorted_greedy_hyp h);
      check_int "SGH scans every pin once" (Hyper.Graph.num_pins h) (value "semimatch.greedy.pin_scans");
      check_int "one candidate per hyperedge" (Hyper.Graph.num_hyperedges h)
        (value "semimatch.greedy.candidates");
      check_int "one realization per task" h.Hyper.Graph.n1 (value "semimatch.greedy.realized"));
  let start = Gh.run Gh.Expected_vector_greedy_hyp h in
  Obs.with_recording (fun () ->
      let _, moves = Semimatch.Local_search.refine h start in
      check "at least two passes" true (value "semimatch.local_search.rounds" >= 2);
      check_int "moves" moves (value "semimatch.local_search.moves");
      check "settled tasks skipped" true (value "semimatch.local_search.skipped" > 0);
      check "candidates evaluated" true (value "semimatch.local_search.candidates" > 0))

let suite =
  [
    Alcotest.test_case "disabled probes record nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "counters match engine stats" `Quick test_counters_match_engine_stats;
    Alcotest.test_case "greedy bulk counts and skipped tasks" `Quick test_search_counters;
    Alcotest.test_case "histogram percentile math" `Quick test_histogram_percentiles;
    Alcotest.test_case "span aggregates and nesting" `Quick test_span_aggregates;
    Alcotest.test_case "JSON sink round-trips" `Quick test_json_sink_roundtrip;
    Alcotest.test_case "JSON parser accepts/rejects" `Quick test_json_parser;
    Alcotest.test_case "NaN sentinels per sink format" `Quick test_nan_sentinels;
    Alcotest.test_case "CSV quotes hostile labels" `Quick test_csv_hostile_label;
    Alcotest.test_case "structured event log basics" `Quick test_events_basics;
    Alcotest.test_case "event ring drop counter" `Quick test_events_dropped_counter;
    Alcotest.test_case "quantile edge cases and shard merging" `Quick test_quantile_edge_cases;
    Alcotest.test_case "exited domains' shards retire" `Quick test_exited_shards_retire;
    Alcotest.test_case "sink layout pins p95 columns" `Quick test_sink_layout_p95;
    Alcotest.test_case "Prometheus render and lint" `Quick test_prom_render_and_lint;
    Alcotest.test_case "Prometheus scrape while observing" `Quick test_prom_scrape_while_observing;
    Alcotest.test_case "CLI profile --stats=json" `Quick test_cli_profile_stats_json;
  ]
