(* Append-only journal file: [len(4 LE)][crc32(4 LE)][payload] records.

   The CRC is the reflected IEEE polynomial (zip/png), the same
   [Hyper.Crc32] that frames edge-stream chunks.  Torn tails are the
   scanner's problem: it walks the frame chain and stops at the first
   record whose length, bytes or checksum don't hold up, so recovery always
   lands on a record boundary. *)

type policy = Always | Interval of float | Never

let policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Always
  | "never" -> Never
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      let ms = String.sub s 9 (String.length s - 9) in
      match float_of_string_opt ms with
      | Some ms when Float.is_finite ms && ms > 0.0 -> Interval (ms /. 1000.0)
      | _ -> failwith (Printf.sprintf "bad fsync interval %S (want interval:MS, MS > 0)" ms))
  | _ -> failwith (Printf.sprintf "bad fsync policy %S (want always, never or interval:MS)" s)

(* Records are length-prefixed: cap the length so a corrupt prefix can
   never demand an absurd allocation during a scan. *)
let max_record = 1 lsl 26

let crc32 s = Int32.of_int (Hyper.Crc32.string s)

let c_appends = Obs.Metrics.counter "server.journal.appends"
let c_fsyncs = Obs.Metrics.counter "server.journal.fsyncs"
let h_append = Obs.Metrics.histogram "server.journal.append_us"
let h_sync = Obs.Metrics.histogram "server.journal.sync_ms"

let () =
  Obs.Prom.describe "server.journal.appends" "Journal records appended.";
  Obs.Prom.describe "server.journal.fsyncs" "Journal fsync calls issued.";
  Obs.Prom.describe "server.journal.append_us"
    "Microseconds per journal append: framing, write and any fsync the policy runs.";
  Obs.Prom.describe "server.journal.sync_ms" "Milliseconds per journal fsync."

let since_ns t0 = Int64.to_float (Int64.sub (Obs.Span.now_ns ()) t0)

type writer = {
  fd : Unix.file_descr;
  policy : policy;
  mutable last_sync_ns : int64;
  mutable dirty : bool;
  mutable records : int;
  mutable closed : bool;
}

let open_writer ?(policy = Interval 0.1) path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; policy; last_sync_ns = Obs.Span.now_ns (); dirty = false; records = 0; closed = false }

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let do_sync w =
  if w.dirty then begin
    let t0 = Obs.Span.now_ns () in
    Unix.fsync w.fd;
    Obs.Metrics.observe h_sync (since_ns t0 /. 1e6);
    Obs.Metrics.incr c_fsyncs;
    w.dirty <- false
  end;
  w.last_sync_ns <- Obs.Span.now_ns ()

let sync w = if not w.closed then do_sync w

let interval_due w =
  match w.policy with
  | Interval s ->
      w.dirty && Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) w.last_sync_ns) >= s
  | Always | Never -> false

let tick w = if (not w.closed) && interval_due w then do_sync w

let append w payload =
  let len = String.length payload in
  if len > max_record then
    invalid_arg (Printf.sprintf "Journal.append: %d-byte record exceeds the %d cap" len max_record);
  let t0 = Obs.Span.now_ns () in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (crc32 payload);
  Bytes.blit_string payload 0 b 8 len;
  write_all w.fd b;
  w.dirty <- true;
  w.records <- w.records + 1;
  Obs.Metrics.incr c_appends;
  (match w.policy with
  | Always -> do_sync w
  | Interval _ -> if interval_due w then do_sync w
  | Never -> ());
  Obs.Metrics.observe h_append (since_ns t0 /. 1e3)

let records_written w = w.records

let close w =
  if not w.closed then begin
    (try do_sync w with Unix.Unix_error _ -> ());
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    w.closed <- true
  end

type record = { payload : string; r_end : int }
type scan = { s_records : record list; s_valid_bytes : int; s_total_bytes : int }

let scan path =
  let data =
    match In_channel.with_open_bin path In_channel.input_all with
    | d -> d
    | exception Sys_error _ -> ""
  in
  let total = String.length data in
  let records = ref [] in
  let off = ref 0 in
  let ok = ref true in
  while !ok do
    if total - !off < 8 then ok := false
    else begin
      let len = Int32.to_int (String.get_int32_le data !off) in
      if len < 0 || len > max_record || total - !off - 8 < len then ok := false
      else begin
        let crc = String.get_int32_le data (!off + 4) in
        let payload = String.sub data (!off + 8) len in
        if crc32 payload <> crc then ok := false
        else begin
          off := !off + 8 + len;
          records := { payload; r_end = !off } :: !records
        end
      end
    end
  done;
  { s_records = List.rev !records; s_valid_bytes = !off; s_total_bytes = total }

let truncate path len = Unix.truncate path len
