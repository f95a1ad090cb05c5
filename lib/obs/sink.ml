(* Report sinks: render the current Metrics + Span state as a human table,
   JSON lines (one object per metric — the machine format the CLI's
   [--stats=json] and the bench smoke artifact use), or CSV.

   [?label] tags every emitted row; the CLI's [profile] subcommand uses it to
   distinguish per-algorithm snapshots inside one report. *)

type format = Table | Json | Csv

(* [nan] means "no data" (empty histogram min/mean, zero-count span mean).
   Each format gets a sentinel it can afford: the table prints "-", CSV
   leaves the cell empty (a numeric parser reads the column cleanly), and
   the JSON renderer never goes through here — [Json.to_string] emits
   non-finite numbers as [null], so every emitted line stays valid JSON. *)
let fmt_float ?(nan_as = "-") f =
  if not (Float.is_finite f) then nan_as
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* One flat row per metric; the three formats render the same rows. *)
type row = {
  kind : string; (* "counter" | "histogram" | "span" *)
  name : string;
  fields : (string * Json.t) list; (* kind-specific payload, emit order *)
}

let rows () =
  let counters =
    Metrics.fold_counters
      (fun name v acc -> { kind = "counter"; name; fields = [ ("value", Json.Num (float_of_int v)) ] } :: acc)
      []
  in
  let histograms =
    Metrics.fold_histograms
      (fun name s _ acc ->
        {
          kind = "histogram";
          name;
          fields =
            [
              ("count", Json.Num (float_of_int s.Metrics.s_count));
              ("sum", Json.Num s.Metrics.s_sum);
              ("min", Json.Num s.Metrics.s_min);
              ("max", Json.Num s.Metrics.s_max);
              ("mean", Json.Num s.Metrics.s_mean);
              ("p50", Json.Num s.Metrics.s_p50);
              ("p90", Json.Num s.Metrics.s_p90);
              ("p95", Json.Num s.Metrics.s_p95);
              ("p99", Json.Num s.Metrics.s_p99);
            ];
        }
        :: acc)
      []
  in
  let spans =
    Span.fold_aggregates
      (fun name ~count ~total_s acc ->
        {
          kind = "span";
          name;
          fields =
            [
              ("count", Json.Num (float_of_int count));
              ("total_s", Json.Num total_s);
              ("mean_s", Json.Num (if count = 0 then Float.nan else total_s /. float_of_int count));
            ];
        }
        :: acc)
      []
  in
  List.rev counters @ List.rev histograms @ List.rev spans

let json_field_to_string ?nan_as = function
  | Json.Num f -> fmt_float ?nan_as f
  | Json.Str s -> s
  | other -> Json.to_string other

let render_table ?label rows =
  let buf = Buffer.create 1024 in
  (match label with
  | Some l -> Buffer.add_string buf (Printf.sprintf "== %s ==\n" l)
  | None -> ());
  let section kind header =
    let rs = List.filter (fun r -> r.kind = kind) rows in
    if rs <> [] then begin
      Buffer.add_string buf (header ^ "\n");
      List.iter
        (fun r ->
          let payload =
            r.fields
            |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (json_field_to_string v))
            |> String.concat "  "
          in
          Buffer.add_string buf (Printf.sprintf "  %-44s %s\n" r.name payload))
        rs
    end
  in
  section "counter" "counters:";
  section "histogram" "histograms:";
  section "span" "spans:";
  if rows = [] then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

let render_json ?label rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      let base = [ ("type", Json.Str r.kind); ("name", Json.Str r.name) ] in
      let base = match label with Some l -> ("label", Json.Str l) :: base | None -> base in
      Buffer.add_string buf (Json.to_string (Json.Obj (base @ r.fields)));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* CSV with a fixed header: kind-specific fields are mapped onto the union
   schema, absent cells stay empty.  Cells are RFC 4180-quoted when they
   contain a separator, quote or newline (metric names are clean ASCII, but
   user-supplied [?label]s are not guaranteed to be), and NaN cells are
   left empty rather than poisoning a numeric column. *)
let csv_columns = [ "value"; "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p95"; "p99"; "total_s"; "mean_s" ]

let csv_quote cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

let render_csv ?label rows =
  let buf = Buffer.create 1024 in
  let header = [ "type"; "name" ] @ csv_columns in
  let header = match label with Some _ -> "label" :: header | None -> header in
  Buffer.add_string buf (String.concat "," header);
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      let cell col =
        match List.assoc_opt col r.fields with
        | Some v -> json_field_to_string ~nan_as:"" v
        | None -> ""
      in
      let cells = [ r.kind; r.name ] @ List.map cell csv_columns in
      let cells = match label with Some l -> l :: cells | None -> cells in
      Buffer.add_string buf (String.concat "," (List.map csv_quote cells));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let render ?label fmt =
  let rows = rows () in
  match fmt with
  | Table -> render_table ?label rows
  | Json -> render_json ?label rows
  | Csv -> render_csv ?label rows

let emit ?label ?(oc = stdout) fmt = output_string oc (render ?label fmt)
