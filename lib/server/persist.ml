module J = Obs.Json

let ckpt_format = "semimatch.ckpt/1"
let ckpt_name seq = Printf.sprintf "ckpt-%06d" seq
let journal_name seq = Printf.sprintf "journal-%06d.wal" seq

let c_checkpoints = Obs.Metrics.counter "server.persist.checkpoints"
let c_groups = Obs.Metrics.counter "server.persist.groups"

let () =
  Obs.Prom.describe "server.persist.checkpoints" "Checkpoints written to the persist dir.";
  Obs.Prom.describe "server.persist.groups" "Journal groups logged (one per drain group)."

type t = {
  dir : string;
  policy : Journal.policy;
  version : string;
  mutable epoch : int;
  mutable writer : Journal.writer;
}

type group = { g_lines : string list; g_cached : (string * string) list }

type recovery = {
  r_dir : string;
  r_epoch : int;
  r_checkpoint : string option;
  r_sessions : (string * J.t) list;
  r_groups : group list;
  r_records : int;
  r_valid_bytes : int;
  r_torn_bytes : int;
  r_skipped : (string * string) list;
}

(* ---------- small fs helpers ---------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Write + fsync: the checkpoint atomicity argument needs the file bytes on
   disk before the rename publishes them. *)
let write_file_sync path text =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes = Bytes.of_string text in
      let len = Bytes.length bytes in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write fd bytes !off (len - !off)
      done;
      Unix.fsync fd)

(* Directory fsync makes the rename itself durable; some filesystems refuse
   fsync on a directory fd, which only weakens power-loss guarantees. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* ---------- checkpoint validation ---------- *)

let seq_of_name prefix name =
  if
    String.length name > String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  then int_of_string_opt (String.sub name (String.length prefix) (String.length name - String.length prefix))
  else None

(* Full structural validation: the manifest (written last, so presence
   means complete) with its format tag and file sizes, then every session
   line parses. *)
let load_checkpoint dir =
  let ( let* ) = Result.bind in
  let* _ = Obs.Manifest.read ~format:ckpt_format dir in
  let* text =
    match read_file (Filename.concat dir "sessions.jsonl") with
    | Some t -> Ok t
    | None -> Error "missing sessions.jsonl"
  in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  let* sessions =
    List.fold_left
      (fun acc line ->
        let* sessions = acc in
        match J.of_string line with
        | exception Failure msg -> Error ("sessions.jsonl: " ^ msg)
        | j -> (
            match (Option.bind (J.member "id" j) J.to_str, J.member "state" j) with
            | Some id, Some state -> Ok ((id, state) :: sessions)
            | _ -> Error "sessions.jsonl: line without id/state"))
      (Ok []) lines
  in
  Ok (List.rev sessions)

(* ---------- journal group codec ---------- *)

let encode_group ~lines ~cached =
  J.to_string
    (J.Obj
       [
         ("lines", J.List (List.map (fun l -> J.Str l) lines));
         ( "cached",
           J.List
             (List.map
                (fun (k, reply) -> J.Obj [ ("idem", J.Str k); ("reply", J.Str reply) ])
                cached) );
       ])

let decode_group payload =
  match J.of_string payload with
  | exception Failure _ -> None
  | j -> (
      match J.member "lines" j with
      | Some (J.List l) ->
          let lines = List.filter_map J.to_str l in
          if List.length lines <> List.length l then None
          else
            let cached =
              match J.member "cached" j with
              | Some (J.List c) ->
                  List.filter_map
                    (fun e ->
                      match
                        ( Option.bind (J.member "idem" e) J.to_str,
                          Option.bind (J.member "reply" e) J.to_str )
                      with
                      | Some k, Some reply -> Some (k, reply)
                      | _ -> None)
                    c
              | _ -> []
            in
            Some { g_lines = lines; g_cached = cached }
      | _ -> None)

(* ---------- recovery ---------- *)

let load dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let ckpts =
    Array.to_list entries
    |> List.filter_map (fun n -> Option.map (fun seq -> (seq, n)) (seq_of_name "ckpt-" n))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let rec pick skipped = function
    | [] -> (0, None, [], List.rev skipped)
    | (seq, name) :: rest -> (
        match load_checkpoint (Filename.concat dir name) with
        | Ok sessions -> (seq, Some name, sessions, List.rev skipped)
        | Error reason -> pick ((name, reason) :: skipped) rest)
  in
  let epoch, checkpoint, sessions, skipped = pick [] ckpts in
  let s = Journal.scan (Filename.concat dir (journal_name epoch)) in
  (* A CRC-valid record whose payload fails to decode counts as torn too:
     truncate there rather than replay past a gap. *)
  let rec decode acc valid = function
    | [] -> (List.rev acc, valid)
    | (r : Journal.record) :: rest -> (
        match decode_group r.Journal.payload with
        | Some g -> decode (g :: acc) r.Journal.r_end rest
        | None -> (List.rev acc, valid))
  in
  let groups, valid_bytes = decode [] 0 s.Journal.s_records in
  {
    r_dir = dir;
    r_epoch = epoch;
    r_checkpoint = checkpoint;
    r_sessions = sessions;
    r_groups = groups;
    r_records = List.length groups;
    r_valid_bytes = valid_bytes;
    r_torn_bytes = s.Journal.s_total_bytes - valid_bytes;
    r_skipped = skipped;
  }

let open_ ~dir ~policy ~version =
  mkdir_p dir;
  let r = load dir in
  let jpath = Filename.concat dir (journal_name r.r_epoch) in
  if r.r_torn_bytes > 0 && Sys.file_exists jpath then begin
    Journal.truncate jpath r.r_valid_bytes;
    Obs.Events.emit ~level:Obs.Events.Warn "server.journal.torn"
      [
        Obs.Events.str "journal" (journal_name r.r_epoch);
        Obs.Events.int "truncated_bytes" r.r_torn_bytes;
        Obs.Events.int "valid_records" r.r_records;
      ]
  end;
  List.iter
    (fun (name, reason) ->
      Obs.Events.emit ~level:Obs.Events.Warn "server.checkpoint.invalid"
        [ Obs.Events.str "checkpoint" name; Obs.Events.str "reason" reason ])
    r.r_skipped;
  ({ dir; policy; version; epoch = r.r_epoch; writer = Journal.open_writer ~policy jpath }, r)

let log t ~lines ~cached =
  Journal.append t.writer (encode_group ~lines ~cached);
  Obs.Metrics.incr c_groups

let tick t = Journal.tick t.writer
let epoch t = t.epoch
let journal_records t = Journal.records_written t.writer

let prune t =
  Array.iter
    (fun name ->
      (match seq_of_name "ckpt-" name with
      | Some seq when seq < t.epoch - 1 -> rm_rf (Filename.concat t.dir name)
      | _ -> ());
      match seq_of_name "journal-" (Filename.remove_extension name) with
      | Some seq when Filename.extension name = ".wal" && seq < t.epoch ->
          rm_rf (Filename.concat t.dir name)
      | _ -> ())
    (try Sys.readdir t.dir with Sys_error _ -> [||])

let checkpoint t ~sessions =
  let seq = t.epoch + 1 in
  let tmp = Filename.concat t.dir ".ckpt.tmp" in
  match
    rm_rf tmp;
    Unix.mkdir tmp 0o755;
    let sessions_text =
      String.concat ""
        (List.map
           (fun (id, state) ->
             J.to_string (J.Obj [ ("id", J.Str id); ("state", state) ]) ^ "\n")
           sessions)
    in
    write_file_sync (Filename.concat tmp "sessions.jsonl") sessions_text;
    write_file_sync (Filename.concat tmp Obs.Manifest.file)
      (Obs.Manifest.to_string ~format:ckpt_format
         ~files:[ ("sessions.jsonl", sessions_text) ]
         [
           ("seq", J.Num (float_of_int seq));
           ("version", J.Str t.version);
           ("sessions", J.Num (float_of_int (List.length sessions)));
           ("written_unix_s", J.Num (Unix.gettimeofday ()));
         ]);
    let final = Filename.concat t.dir (ckpt_name seq) in
    rm_rf final;
    Unix.rename tmp final;
    fsync_dir t.dir;
    (* Rotate only after the rename: until then every mutation is still
       covered by the old epoch's checkpoint+journal pair.  A stale
       journal for the new epoch (crash inside a previous attempt at this
       sequence number) must not survive into the fresh one. *)
    let jpath = Filename.concat t.dir (journal_name seq) in
    (try Unix.unlink jpath with Unix.Unix_error _ -> ());
    let w = Journal.open_writer ~policy:t.policy jpath in
    Journal.close t.writer;
    t.writer <- w;
    t.epoch <- seq;
    prune t;
    fsync_dir t.dir
  with
  | () ->
      Obs.Metrics.incr c_checkpoints;
      Obs.Events.emit "server.checkpoint"
        [
          Obs.Events.str "dir" (ckpt_name seq);
          Obs.Events.int "sessions" (List.length sessions);
          Obs.Events.int "epoch" seq;
        ];
      Ok (ckpt_name seq)
  | exception (Unix.Unix_error _ as exn) -> Error (Printexc.to_string exn)
  | exception Sys_error msg -> Error msg

let close t = Journal.close t.writer
