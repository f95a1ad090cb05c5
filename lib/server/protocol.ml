module J = Obs.Json

type config = { procs : int array; weight : float }

type request =
  | Ping
  | Load of { session : string; source : [ `Inline of string | `Path of string ] }
  | Add_task of { session : string; configs : config list }
  | Remove_task of { session : string; task : int }
  | Kill_proc of { session : string; proc : int }
  | Resolve of { session : string; budget_ms : float }
  | Solve of { session : string }
  | Stats
  | Metrics
  | Sessions
  | Snapshot of { session : string }
  | Restore of { session : string; state : J.t }
  | Health
  | Dump of { session : string option }
  | Checkpoint
  | Shutdown
  | Stream_begin of { session : string; n1 : int; n2 : int }
  | Stream_chunk of { session : string; edges : (int * config) list }
  | Stream_end of { session : string; threshold_mb : int option; solver : string option }

type parsed = { req : request; id : J.t option; idem : string option }

type error_code = Protocol | Bad_request | Unknown_session | Busy | Too_large | Internal

let code_name = function
  | Protocol -> "protocol"
  | Bad_request -> "bad_request"
  | Unknown_session -> "unknown_session"
  | Busy -> "busy"
  | Too_large -> "too_large"
  | Internal -> "internal"

let default_max_frame = 1 lsl 20

let ok_reply ?id ~op fields =
  let base = [ ("ok", J.Bool true); ("op", J.Str op) ] @ fields in
  let fields = match id with None -> base | Some id -> ("id", id) :: base in
  J.to_string (J.Obj fields)

let error_reply ?id ~code msg =
  let base = [ ("ok", J.Bool false); ("error", J.Str (code_name code)); ("message", J.Str msg) ] in
  let fields = match id with None -> base | Some id -> ("id", id) :: base in
  J.to_string (J.Obj fields)

type reply = { json : J.t; ok : bool; code : string option; message : string }

let decode_reply line =
  match J.of_string line with
  | exception Failure msg -> Error msg
  | json ->
      Ok
        {
          json;
          ok = J.member "ok" json = Some (J.Bool true);
          code = Option.bind (J.member "error" json) J.to_str;
          message = Option.value ~default:line (Option.bind (J.member "message" json) J.to_str);
        }

(* --- request parsing: total over arbitrary bytes --- *)

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun msg -> raise (Reject (code, msg))) fmt

let str_field obj name =
  match J.member name obj with
  | Some (J.Str s) -> s
  | Some _ -> reject Protocol "field %S must be a string" name
  | None -> reject Protocol "missing field %S" name

let session_of obj = str_field obj "session"

let int_field obj name =
  match J.member name obj with
  | Some (J.Num f) when Float.is_integer f && Float.abs f < 1e9 -> int_of_float f
  | Some _ -> reject Protocol "field %S must be an integer" name
  | None -> reject Protocol "missing field %S" name

let num_field_opt obj name ~default =
  match J.member name obj with
  | Some (J.Num f) when Float.is_finite f -> f
  | Some _ -> reject Protocol "field %S must be a finite number" name
  | None -> default

let config_of_json = function
  | J.Obj _ as o ->
      let weight =
        match J.member "weight" o with
        | Some (J.Num w) -> w
        | _ -> reject Protocol "config needs a numeric \"weight\""
      in
      let procs =
        match J.member "procs" o with
        | Some (J.List l) ->
            Array.of_list
              (List.map
                 (function
                   | J.Num f when Float.is_integer f && Float.abs f < 1e9 -> int_of_float f
                   | _ -> reject Protocol "config \"procs\" must be a list of integers")
                 l)
        | _ -> reject Protocol "config needs a \"procs\" list"
      in
      { procs; weight }
  | _ -> reject Protocol "each config must be an object"

let request_of obj =
  match str_field obj "op" with
  | "ping" -> Ping
  | "load" -> (
      let session = session_of obj in
      match (J.member "instance" obj, J.member "path" obj) with
      | Some (J.Str text), None -> Load { session; source = `Inline text }
      | None, Some (J.Str path) -> Load { session; source = `Path path }
      | Some _, Some _ -> reject Protocol "load takes \"instance\" or \"path\", not both"
      | _ -> reject Protocol "load needs an \"instance\" text or a \"path\"")
  | "add_task" -> (
      let session = session_of obj in
      match J.member "configs" obj with
      | Some (J.List l) -> Add_task { session; configs = List.map config_of_json l }
      | Some _ -> reject Protocol "field \"configs\" must be a list"
      | None -> reject Protocol "missing field \"configs\"")
  | "remove_task" -> Remove_task { session = session_of obj; task = int_field obj "task" }
  | "kill_proc" -> Kill_proc { session = session_of obj; proc = int_field obj "proc" }
  | "resolve" ->
      Resolve
        { session = session_of obj; budget_ms = num_field_opt obj "budget_ms" ~default:500.0 }
  | "solve" -> Solve { session = session_of obj }
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "sessions" -> Sessions
  | "snapshot" -> Snapshot { session = session_of obj }
  | "restore" -> (
      let session = session_of obj in
      match J.member "state" obj with
      | Some state -> Restore { session; state }
      | None -> reject Protocol "missing field \"state\"")
  | "health" -> Health
  | "checkpoint" -> Checkpoint
  | "dump" -> (
      match J.member "session" obj with
      | None -> Dump { session = None }
      | Some (J.Str s) -> Dump { session = Some s }
      | Some _ -> reject Protocol "field \"session\" must be a string")
  | "shutdown" -> Shutdown
  | "stream_begin" ->
      let n1 = int_field obj "n1" and n2 = int_field obj "n2" in
      if n1 < 0 || n2 < 0 then reject Bad_request "stream_begin sizes must be non-negative";
      Stream_begin { session = session_of obj; n1; n2 }
  | "stream_chunk" -> (
      let session = session_of obj in
      match J.member "edges" obj with
      | Some (J.List l) ->
          let edge_of = function
            | J.Obj _ as o ->
                let task = int_field o "task" in
                (task, config_of_json o)
            | _ -> reject Protocol "each edge must be an object"
          in
          Stream_chunk { session; edges = List.map edge_of l }
      | Some _ -> reject Protocol "field \"edges\" must be a list"
      | None -> reject Protocol "missing field \"edges\"")
  | "stream_end" ->
      let threshold_mb =
        match J.member "threshold_mb" obj with
        | None -> None
        | Some (J.Num f) when Float.is_integer f && f >= 0.0 && f < 1e6 -> Some (int_of_float f)
        | Some _ -> reject Protocol "field \"threshold_mb\" must be a small non-negative integer"
      in
      let solver =
        match J.member "solver" obj with
        | None -> None
        | Some (J.Str s) -> Some s
        | Some _ -> reject Protocol "field \"solver\" must be a string"
      in
      Stream_end { session = session_of obj; threshold_mb; solver }
  | op -> reject Protocol "unknown op %S" op

let parse ?(max_frame = default_max_frame) line =
  if String.length line > max_frame then
    Error (Too_large, Printf.sprintf "frame of %d bytes exceeds the %d-byte cap"
             (String.length line) max_frame, None)
  else
    match J.of_string line with
    | exception Failure msg -> Error (Protocol, msg, None)
    | J.Obj _ as obj -> (
        let id = J.member "id" obj in
        match
          let idem =
            match J.member "idem" obj with
            | None -> None
            | Some (J.Str s) when s <> "" -> Some s
            | Some _ -> reject Protocol "field \"idem\" must be a non-empty string"
          in
          (request_of obj, idem)
        with
        | req, idem -> Ok { req; id; idem }
        | exception Reject (code, msg) -> Error (code, msg, id))
    | _ -> Error (Protocol, "request must be a JSON object", None)
