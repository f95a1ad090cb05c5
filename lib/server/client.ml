(* Blocking client over a raw fd with a select-based read deadline.

   The previous channel-based implementation blocked forever in
   [input_line] when the daemon hung mid-request; reads now go through
   [Unix.select] against an absolute deadline, so a hung server costs
   [timeout_s] and a [Timeout] exception instead of a stuck CLI. *)

exception Timeout

type t = { fd : Unix.file_descr; mutable buf : string; mutable eof : bool }

let of_fd fd = { fd; buf = ""; eof = false }

let fd t = t.fd

(* A failed connect closes its socket: callers retry in a loop while a
   daemon starts, and must not leak one fd per attempt. *)
let dial domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd fd

let connect_unix path = dial Unix.PF_UNIX (Unix.ADDR_UNIX path)

let connect_tcp ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> raise Not_found
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))
  in
  dial Unix.PF_INET (Unix.ADDR_INET (addr, port))

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* Pop one complete line from the buffer, if any. *)
let take_line t =
  match String.index_opt t.buf '\n' with
  | None -> None
  | Some i ->
      let line = String.sub t.buf 0 i in
      t.buf <- String.sub t.buf (i + 1) (String.length t.buf - i - 1);
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Some line

let read_line ?timeout_s t =
  let deadline = Option.bind timeout_s Obs.Span.deadline_after in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match take_line t with
    | Some line -> line
    | None ->
        if t.eof then raise End_of_file;
        let wait =
          match deadline with
          | None -> -1.0 (* select: block indefinitely *)
          | Some d ->
              let left = Obs.Span.ns_to_s (Int64.sub d (Obs.Span.now_ns ())) in
              if left <= 0.0 then raise Timeout else left
        in
        (match Unix.select [ t.fd ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> if deadline <> None then raise Timeout
        | _ :: _, _, _ -> (
            match Unix.read t.fd chunk 0 (Bytes.length chunk) with
            | 0 -> t.eof <- true
            | n -> t.buf <- t.buf ^ Bytes.sub_string chunk 0 n
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> t.eof <- true));
        loop ()
  in
  loop ()

let request ?timeout_s t line =
  write_all t.fd (line ^ "\n");
  read_line ?timeout_s t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* The connection failures a retry can plausibly outlive: the daemon is
   restarting (refused / socket file not there yet) or just dropped us
   (reset / broken pipe).  Anything else propagates immediately. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE -> true
  | _ -> false

let retrying ?(attempts = 3) ?(delay_s = 0.1) connect =
  if attempts < 1 then invalid_arg "Client.retrying: attempts must be positive";
  let rec go n delay =
    match connect () with
    | t -> t
    | exception Unix.Unix_error (err, _, _) when transient err && n < attempts ->
        Unix.sleepf delay;
        go (n + 1) (delay *. 2.0)
  in
  go 1 delay_s
