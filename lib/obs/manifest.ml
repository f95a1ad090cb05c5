(* manifest.json: the file a diagnostic bundle ([Recorder]) or a daemon
   checkpoint ([Server.Persist]) writes last into its directory, so its
   presence marks the directory complete.  It holds a format tag, the
   writer's own fields and the byte size of every other file it wrote;
   [read] checks the tag and every size against the disk. *)

let file = "manifest.json"

let to_string ~format fields ~files =
  let entry (name, text) =
    Json.Obj [ ("name", Json.Str name); ("bytes", Json.Num (float_of_int (String.length text))) ]
  in
  Json.to_string
    (Json.Obj ((("format", Json.Str format) :: fields) @ [ ("files", Json.List (List.map entry files)) ]))

let read ~format dir =
  let path name = Filename.concat dir name in
  let ( let* ) = Result.bind in
  let* manifest =
    match In_channel.with_open_bin (path file) In_channel.input_all with
    | exception Sys_error msg ->
        Error (if Sys.file_exists (path file) then msg else "no manifest.json (never completed)")
    | text -> (
        match Json.of_string text with
        | j -> Ok j
        | exception Failure msg -> Error ("manifest.json: " ^ msg))
  in
  let* () =
    match Option.bind (Json.member "format" manifest) Json.to_str with
    | Some tag when tag = format -> Ok ()
    | Some tag -> Error (Printf.sprintf "manifest.json: format %S (want %S)" tag format)
    | None -> Error "manifest.json: missing format"
  in
  let* files =
    match Json.member "files" manifest with
    | Some (Json.List l) ->
        let entries =
          List.filter_map
            (fun f ->
              match
                ( Option.bind (Json.member "name" f) Json.to_str,
                  Option.bind (Json.member "bytes" f) Json.to_float )
              with
              | Some n, Some b -> Some (n, int_of_float b)
              | _ -> None)
            l
        in
        if List.length entries = List.length l then Ok entries
        else Error "manifest.json: malformed files entry"
    | _ -> Error "manifest.json: missing files list"
  in
  let* () =
    List.fold_left
      (fun acc (name, bytes) ->
        let* () = acc in
        match (Unix.stat (path name)).Unix.st_size with
        | size when size = bytes -> Ok ()
        | size -> Error (Printf.sprintf "%s: %d bytes on disk but the manifest recorded %d" name size bytes)
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "%s: listed in the manifest but %s" name (Unix.error_message e)))
      (Ok ()) files
  in
  Ok (manifest, files)
