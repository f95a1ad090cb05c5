(* Prometheus text exposition (text format 0.0.4) rendered from the live
   Metrics registry, plus caller-supplied gauges for state the registry does
   not hold (resident sessions, queue depth...).

   Mapping:
   - every counter becomes [<ns>_<name>_total];
   - every histogram becomes a cumulative-[le] bucket series
     [<ns>_<name>_bucket{le="..."}] (the log2 bucket upper bounds, closed by
     ["+Inf"]) with [_sum] and [_count] on the side;
   - span aggregates become two counters, [<ns>_span_<name>_seconds_total]
     and [<ns>_span_<name>_runs_total];
   - gauges are passed in as [(name, labels, value)] triples and grouped by
     family so each family is one contiguous block under one [# TYPE] line.

   [lint] checks the invariants a scraper relies on (every sample under a
   declared family, no duplicate families, strictly increasing [le] bounds
   with non-decreasing cumulative counts ending at [+Inf] = [_count]) and is
   run by the CLI's [client --metrics] path so CI fails on a malformed
   exposition. *)

let namespace = "semimatch"

let sanitize name =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = ':'
  in
  String.map (fun c -> if ok c then c else '_') name

let metric_name name = namespace ^ "_" ^ sanitize name

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_to_string = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v)) ls)
      ^ "}"

(* Prometheus values are floats; print integers exactly and the rest with
   enough digits to round-trip. *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

type gauge = string * (string * string) list * float

(* Registered metric descriptions, keyed by the raw (pre-namespace) metric
   name: ["server.requests"], ["span.portfolio"]...  Families without a
   registration fall back to a kind-derived default, so the exposition
   always carries one [# HELP] per family. *)
let descriptions : (string, string) Hashtbl.t = Hashtbl.create 64

let describe name desc = Hashtbl.replace descriptions name desc

(* HELP text escaping per the 0.0.4 exposition format: backslash and
   newline only (no quote escaping outside label values). *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render ?(gauges : gauge list = []) () =
  let buf = Buffer.create 4096 in
  let family ~raw ~kind ~default fam =
    let help = match Hashtbl.find_opt descriptions raw with Some d -> d | None -> default in
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fam (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind)
  in
  let sample ?(labels = []) name v =
    Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (labels_to_string labels) (fmt_value v))
  in
  (* counters *)
  Metrics.fold_counters
    (fun name v () ->
      let fam = metric_name name ^ "_total" in
      family ~raw:name ~kind:"counter" ~default:(Printf.sprintf "Total %s events." name) fam;
      sample fam (float_of_int v))
    ();
  (* histograms: cumulative le buckets + sum + count *)
  Metrics.fold_histograms
    (fun name s buckets () ->
      let fam = metric_name name in
      family ~raw:name ~kind:"histogram"
        ~default:(Printf.sprintf "Distribution of %s observations." name)
        fam;
      List.iter
        (fun (le, cum) ->
          sample ~labels:[ ("le", fmt_value le) ] (fam ^ "_bucket") (float_of_int cum))
        buckets;
      sample ~labels:[ ("le", "+Inf") ] (fam ^ "_bucket") (float_of_int s.Metrics.s_count);
      sample (fam ^ "_sum") s.Metrics.s_sum;
      sample (fam ^ "_count") (float_of_int s.Metrics.s_count))
    ();
  (* span aggregates as a pair of counters *)
  Span.fold_aggregates
    (fun name ~count ~total_s () ->
      let raw = "span." ^ name in
      let base = metric_name raw in
      let secs = base ^ "_seconds_total" and runs = base ^ "_runs_total" in
      family ~raw ~kind:"counter"
        ~default:(Printf.sprintf "Cumulative seconds spent in span %s." name)
        secs;
      sample secs total_s;
      family ~raw ~kind:"counter"
        ~default:(Printf.sprintf "Completed runs of span %s." name)
        runs;
      sample runs (float_of_int count))
    ();
  (* caller gauges, grouped by family in first-seen order *)
  let families = ref [] in
  List.iter
    (fun (name, labels, v) ->
      let fam = metric_name name in
      match List.assoc_opt fam !families with
      | Some (_, cell) -> cell := (labels, v) :: !cell
      | None -> families := !families @ [ (fam, (name, ref [ (labels, v) ])) ])
    gauges;
  List.iter
    (fun (fam, (raw, cell)) ->
      family ~raw ~kind:"gauge" ~default:(Printf.sprintf "Current value of %s." raw) fam;
      List.iter (fun (labels, v) -> sample ~labels fam v) (List.rev !cell))
    !families;
  Buffer.contents buf

(* ---------- format lint ---------- *)

(* Split "name{labels} value" into (name, labels-or-"", value text).  Label
   values are quoted and may contain escaped quotes, so scan for the closing
   brace respecting string state. *)
let split_sample line =
  match String.index_opt line '{' with
  | None -> (
      match String.index_opt line ' ' with
      | None -> None
      | Some i ->
          Some
            ( String.sub line 0 i,
              "",
              String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
  | Some lb ->
      let name = String.sub line 0 lb in
      let n = String.length line in
      let rec close i in_str escaped =
        if i >= n then None
        else
          match line.[i] with
          | '\\' when in_str && not escaped -> close (i + 1) in_str true
          | '"' when not escaped -> close (i + 1) (not in_str) false
          | '}' when not in_str -> Some i
          | _ -> close (i + 1) in_str false
      in
      Option.bind (close (lb + 1) false false) (fun rb ->
          let labels = String.sub line (lb + 1) (rb - lb - 1) in
          let rest = String.trim (String.sub line (rb + 1) (n - rb - 1)) in
          if rest = "" then None else Some (name, labels, rest))

let label_value labels key =
  (* good enough for lint purposes: find [key="..."] and unescape nothing —
     le values never need escapes *)
  let needle = key ^ "=\"" in
  let n = String.length labels and m = String.length needle in
  let rec find i =
    if i + m > n then None
    else if String.sub labels i m = needle then
      let rec stop j = if j >= n || labels.[j] = '"' then j else stop (j + 1) in
      let j = stop (i + m) in
      Some (String.sub labels (i + m) (j - i - m))
    else find (i + 1)
  in
  find 0

let lint text =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let types : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let helps : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* per histogram family: le/cumulative pairs in order of appearance *)
  let hist_buckets : (string, (float * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  let hist_counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
        match String.index_from_opt line 7 ' ' with
        | Some j when j > 7 ->
            let name = String.sub line 7 (j - 7) in
            if Hashtbl.mem helps name then err "line %d: duplicate # HELP for %s" ln name
            else Hashtbl.replace helps name ()
        | _ -> err "line %d: malformed # HELP line" ln
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
        | [ name; kind ] ->
            if Hashtbl.mem types name then err "line %d: duplicate # TYPE for %s" ln name
            else if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then err "line %d: unknown metric type %S for %s" ln kind name
            else begin
              if not (Hashtbl.mem helps name) then
                err "line %d: # TYPE %s without a preceding # HELP" ln name;
              Hashtbl.replace types name kind
            end
        | _ -> err "line %d: malformed # TYPE line" ln
      end
      else if String.length line >= 1 && line.[0] = '#' then () (* comments *)
      else
        match split_sample line with
        | None -> err "line %d: unparseable sample %S" ln line
        | Some (name, labels, value) -> (
            let v =
              if value = "+Inf" then Some infinity
              else if value = "-Inf" then Some neg_infinity
              else if value = "NaN" then Some Float.nan
              else float_of_string_opt value
            in
            match v with
            | None -> err "line %d: non-numeric value %S for %s" ln value name
            | Some v -> (
                (* resolve the declared family this sample belongs to *)
                let strip suffix =
                  let s = String.length suffix and n = String.length name in
                  if n > s && String.sub name (n - s) s = suffix then
                    Some (String.sub name 0 (n - s))
                  else None
                in
                let hist_fam suffix =
                  match strip suffix with
                  | Some fam when Hashtbl.find_opt types fam = Some "histogram" -> Some fam
                  | _ -> None
                in
                match Hashtbl.find_opt types name with
                | Some _ -> ()
                | None -> (
                    match (hist_fam "_bucket", hist_fam "_sum", hist_fam "_count") with
                    | Some fam, _, _ -> (
                        match label_value labels "le" with
                        | None -> err "line %d: %s_bucket sample without an \"le\" label" ln fam
                        | Some le ->
                            let le =
                              if le = "+Inf" then infinity
                              else Option.value ~default:Float.nan (float_of_string_opt le)
                            in
                            if Float.is_nan le then
                              err "line %d: unparseable le bound on %s" ln fam
                            else begin
                              let cell =
                                match Hashtbl.find_opt hist_buckets fam with
                                | Some c -> c
                                | None ->
                                    let c = ref [] in
                                    Hashtbl.replace hist_buckets fam c;
                                    c
                              in
                              cell := (le, v) :: !cell
                            end)
                    | None, Some _, _ -> ()
                    | None, None, Some fam -> Hashtbl.replace hist_counts fam v
                    | None, None, None ->
                        err "line %d: sample %s has no preceding # TYPE declaration" ln name)))
    )
    lines;
  Hashtbl.iter
    (fun fam kind ->
      if kind = "histogram" then begin
        match Hashtbl.find_opt hist_buckets fam with
        | None -> err "histogram %s has no _bucket samples" fam
        | Some cell ->
            let buckets = List.rev !cell in
            let rec check = function
              | (le1, c1) :: ((le2, c2) :: _ as rest) ->
                  if not (le1 < le2) then err "histogram %s: le bounds not increasing (%g, %g)" fam le1 le2;
                  if c1 > c2 then err "histogram %s: cumulative counts decrease at le=%g" fam le2;
                  check rest
              | _ -> ()
            in
            check buckets;
            (match List.rev buckets with
            | (last_le, last_c) :: _ ->
                if last_le <> infinity then err "histogram %s: bucket series does not end at +Inf" fam
                else (
                  match Hashtbl.find_opt hist_counts fam with
                  | Some count when count <> last_c ->
                      err "histogram %s: +Inf bucket (%g) disagrees with _count (%g)" fam last_c count
                  | _ -> ())
            | [] -> ())
      end)
    types;
  match List.rev !errors with [] -> Ok () | e :: _ as all -> Error (if List.length all = 1 then e else Printf.sprintf "%s (and %d more)" e (List.length all - 1))
