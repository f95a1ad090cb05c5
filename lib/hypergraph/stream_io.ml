(* Binary edge-stream format: a version-tagged fixed header followed by
   CRC-framed chunks of hyperedge records.  The point of the format is that
   both ends are O(chunk): the writer buffers one chunk before flushing, the
   reader inflates one chunk at a time, and neither side ever holds the
   whole instance — that is what lets `gen --stream-out` emit 10^7+ edges
   and the streaming solvers consume them in bounded memory.

   Layout (all integers little-endian):

     header (36 bytes):
       magic   "SMESTR"                 6 bytes
       version u16                      (currently 1)
       flags   u32                      bit 0 singleton, bit 1 unit-weight,
                                        bit 2 task-grouped (nondecreasing ids)
       n1      u32   tasks
       n2      u32   processors
       records u64   hyperedge count    (all-ones until sealed by close)
       pins    u64   total pin count    (all-ones until sealed by close)

     chunk:
       count   u32   records in this chunk (>= 1)
       bytes   u32   payload length
       payload count records back to back
       crc32   u32   reflected IEEE CRC of the payload

     record:
       task    u32
       weight  f64   (IEEE bits)
       k       u32   pin count (>= 1)
       procs   k * u32

   The counts in the header are patched in place by [close_writer]; a file
   whose count fields are still all-ones was never sealed (writer crashed),
   which [validate] reports distinctly from a torn tail. *)

let magic = "SMESTR"
let version = 1
let header_bytes = 36

let flag_singleton = 1
let flag_unit = 2
let flag_grouped = 4

(* Same caps as the text loader: a hostile header must not be able to
   request absurd allocations before any record is read. *)
let max_side = 100_000_000
let max_chunk_bytes = 1 lsl 24
let max_chunk_records = 1 lsl 20
let max_pins = 1 lsl 20

let unsealed = -1 (* all-ones u64 read back as an OCaml int *)

type header = {
  h_version : int;
  h_flags : int;
  h_n1 : int;
  h_n2 : int;
  h_records : int;  (** [unsealed] ([-1]) when the writer never closed *)
  h_pins : int;
}

let singleton h = h.h_flags land flag_singleton <> 0
let unit_weight h = h.h_flags land flag_unit <> 0
let task_grouped h = h.h_flags land flag_grouped <> 0
let sealed h = h.h_records >= 0

(* Words an in-core CSR of this instance would take (task_off, h_off, h_adj,
   w — see Hyper.Graph), for the ingest threshold and the memory-ratio
   assertions.  [None] until the stream is sealed. *)
let csr_estimate_words h =
  if not (sealed h) then None
  else Some (h.h_n1 + 1 + (2 * (h.h_records + 1)) + h.h_pins)

(* {2 Writer} *)

type writer = {
  oc : out_channel;
  w_n1 : int;
  w_n2 : int;
  chunk_records : int;
  buf : Buffer.t;
  mutable pending : int;  (* records buffered, not yet framed *)
  mutable records : int;
  mutable pins : int;
  mutable w_flags : int;
  mutable last_task : int;
  mutable closed : bool;
}

let put_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let output_u32 oc v =
  for i = 0 to 3 do
    output_byte oc ((v lsr (8 * i)) land 0xff)
  done

let put_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let header_string ~flags ~n1 ~n2 ~records ~pins =
  let buf = Buffer.create header_bytes in
  Buffer.add_string buf magic;
  put_u16 buf version;
  put_u32 buf flags;
  put_u32 buf n1;
  put_u32 buf n2;
  (if records < 0 then Buffer.add_string buf (String.make 8 '\xff') else put_u64 buf records);
  (if pins < 0 then Buffer.add_string buf (String.make 8 '\xff') else put_u64 buf pins);
  Buffer.contents buf

let create_writer ?(chunk_records = 8192) ~path ~n1 ~n2 () =
  if n1 < 0 || n2 < 0 then invalid_arg "Stream_io: negative size";
  if n1 > max_side || n2 > max_side then invalid_arg "Stream_io: sizes out of range";
  if chunk_records <= 0 || chunk_records > max_chunk_records then
    invalid_arg "Stream_io: bad chunk size";
  let oc = open_out_bin path in
  output_string oc (header_string ~flags:0 ~n1 ~n2 ~records:unsealed ~pins:unsealed);
  {
    oc;
    w_n1 = n1;
    w_n2 = n2;
    chunk_records;
    buf = Buffer.create 65536;
    pending = 0;
    records = 0;
    pins = 0;
    w_flags = flag_singleton lor flag_unit lor flag_grouped;
    last_task = -1;
    closed = false;
  }

let flush_chunk w =
  if w.pending > 0 then begin
    let payload = Buffer.to_bytes w.buf in
    let len = Bytes.length payload in
    output_u32 w.oc w.pending;
    output_u32 w.oc len;
    output_bytes w.oc payload;
    output_u32 w.oc (Crc32.bytes payload ~pos:0 ~len);
    Buffer.clear w.buf;
    w.pending <- 0
  end

(* Append the hyperedge whose pins are procs.(pos .. stop - 1). *)
let add_pins w ~task ~weight procs pos stop =
  if w.closed then invalid_arg "Stream_io.add: writer closed";
  if task < 0 || task >= w.w_n1 then invalid_arg "Stream_io.add: task out of range";
  if not (weight > 0.0) then invalid_arg "Stream_io.add: weight must be positive";
  let k = stop - pos in
  if k = 0 then invalid_arg "Stream_io.add: empty processor set";
  if k > max_pins then invalid_arg "Stream_io.add: too many pins";
  for i = pos to stop - 1 do
    let u = procs.(i) in
    if u < 0 || u >= w.w_n2 then invalid_arg "Stream_io.add: processor out of range";
    for j = pos to i - 1 do
      if procs.(j) = u then invalid_arg "Stream_io.add: duplicate processor"
    done
  done;
  if k <> 1 then w.w_flags <- w.w_flags land lnot flag_singleton;
  if weight <> 1.0 then w.w_flags <- w.w_flags land lnot flag_unit;
  if task < w.last_task then w.w_flags <- w.w_flags land lnot flag_grouped;
  w.last_task <- task;
  put_u32 w.buf task;
  put_f64 w.buf weight;
  put_u32 w.buf k;
  for i = pos to stop - 1 do
    put_u32 w.buf procs.(i)
  done;
  w.pending <- w.pending + 1;
  w.records <- w.records + 1;
  w.pins <- w.pins + k;
  if w.pending >= w.chunk_records || Buffer.length w.buf >= max_chunk_bytes - (12 + (8 * max_pins))
  then flush_chunk w

let add w ~task ~procs ~weight = add_pins w ~task ~weight procs 0 (Array.length procs)

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    flush_chunk w;
    (* Seal: rewrite the header with the real counts and flags. *)
    seek_out w.oc 0;
    output_string w.oc
      (header_string ~flags:w.w_flags ~n1:w.w_n1 ~n2:w.w_n2 ~records:w.records ~pins:w.pins);
    close_out w.oc
  end

let writer_records w = w.records

(* {2 Reader} *)

type reader = {
  ic : in_channel;
  hdr : header;
  head : Bytes.t;  (* frame head / checksum scratch *)
  mutable chunk : Bytes.t;  (* payload buffer, reused while chunks fit *)
  mutable chunk_len : int;  (* payload bytes of the current chunk *)
  mutable chunk_pos : int;  (* byte cursor in [chunk] *)
  mutable chunk_left : int;  (* records left in [chunk] *)
  mutable file_pos : int;  (* byte offset of the next frame *)
}

let get_u16 b pos = Char.code (Bytes.get b pos) lor (Char.code (Bytes.get b (pos + 1)) lsl 8)

let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let get_u64 b pos =
  let v = Bytes.get_int64_le b pos in
  if v = -1L then unsealed
  else if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    failwith "Stream_io: count field out of range"
  else Int64.to_int v

let fail_at pos msg = failwith (Printf.sprintf "Stream_io: offset %d: %s" pos msg)

let decode_header b =
  if Bytes.length b < header_bytes then failwith "Stream_io: short header";
  if Bytes.sub_string b 0 6 <> magic then failwith "Stream_io: bad magic (not an edge stream)";
  let v = get_u16 b 6 in
  if v <> version then failwith (Printf.sprintf "Stream_io: unsupported version %d" v);
  let flags = get_u32 b 8 in
  let n1 = get_u32 b 12 in
  let n2 = get_u32 b 16 in
  if n1 < 0 || n2 < 0 || n1 > max_side || n2 > max_side then
    failwith "Stream_io: sizes out of range";
  let records = get_u64 b 20 in
  let pins = get_u64 b 28 in
  { h_version = v; h_flags = flags; h_n1 = n1; h_n2 = n2; h_records = records; h_pins = pins }

let open_reader path =
  let ic = open_in_bin path in
  match
    let b = Bytes.create header_bytes in
    really_input ic b 0 header_bytes;
    decode_header b
  with
  | hdr ->
      {
        ic;
        hdr;
        head = Bytes.create 8;
        chunk = Bytes.empty;
        chunk_len = 0;
        chunk_pos = 0;
        chunk_left = 0;
        file_pos = header_bytes;
      }
  | exception End_of_file ->
      close_in_noerr ic;
      failwith "Stream_io: short header"
  | exception e ->
      close_in_noerr ic;
      raise e

let header r = r.hdr
let close_reader r = close_in_noerr r.ic

let rewind r =
  seek_in r.ic header_bytes;
  r.chunk_left <- 0;
  r.chunk_pos <- 0;
  r.file_pos <- header_bytes

(* Load the next frame into [r.chunk].  Returns false at a clean EOF;
   raises on a torn or corrupt frame. *)
let next_chunk r =
  let head = r.head in
  match really_input r.ic head 0 8 with
  | exception End_of_file ->
      (* Either a clean boundary or a torn frame head: distinguish by
         whether any bytes remained. *)
      let here = pos_in r.ic in
      if here <> r.file_pos then fail_at r.file_pos "torn chunk head" else false
  | () ->
      let count = get_u32 head 0 in
      let len = get_u32 head 4 in
      if count <= 0 || count > max_chunk_records then fail_at r.file_pos "bad chunk record count";
      if len <= 0 || len > max_chunk_bytes then fail_at r.file_pos "bad chunk length";
      if Bytes.length r.chunk < len then r.chunk <- Bytes.create len;
      let payload = r.chunk in
      (match really_input r.ic payload 0 len with
      | exception End_of_file -> fail_at r.file_pos "torn chunk payload"
      | () -> ());
      (match really_input r.ic head 0 4 with
      | exception End_of_file -> fail_at r.file_pos "torn chunk checksum"
      | () -> ());
      if get_u32 head 0 <> Crc32.bytes payload ~pos:0 ~len then
        fail_at r.file_pos "chunk checksum mismatch";
      r.chunk_len <- len;
      r.chunk_pos <- 0;
      r.chunk_left <- count;
      r.file_pos <- r.file_pos + 8 + len + 4;
      true

(* A bad record names the offset of its chunk's frame, which ends where
   the next frame starts. *)
let record_error r msg = fail_at (r.file_pos - 12 - r.chunk_len) msg

(* The pin at byte [off] of the chunk, range-checked. *)
let[@inline] pin r b off =
  let u = get_u32 b off in
  if u >= r.hdr.h_n2 then record_error r "processor out of range";
  u

(* Decode one record at the cursor.  [procs] is a fresh array that [f]
   owns: the chunk buffer is reused, the pins never are. *)
let read_record r f =
  let b = r.chunk in
  let pos = r.chunk_pos in
  if pos + 16 > r.chunk_len then record_error r "record overruns chunk";
  let task = get_u32 b pos in
  let weight = Int64.float_of_bits (Bytes.get_int64_le b (pos + 4)) in
  let k = get_u32 b (pos + 12) in
  if k <= 0 || k > max_pins then record_error r "bad pin count";
  if k <> 1 && singleton r.hdr then record_error r "several processors under a singleton header";
  if pos + 16 + (4 * k) > r.chunk_len then record_error r "record overruns chunk";
  if task < 0 || task >= r.hdr.h_n1 then record_error r "task out of range";
  if not (weight > 0.0) then record_error r "weight must be positive";
  if weight <> 1.0 && unit_weight r.hdr then record_error r "weight is not 1 under a unit-weight header";
  let procs =
    (* Every SINGLEPROC stream has k = 1: a literal costs no C call. *)
    if k = 1 then [| pin r b (pos + 16) |]
    else begin
      let procs = Array.make k 0 in
      for i = 0 to k - 1 do
        Array.unsafe_set procs i (pin r b (pos + 16 + (4 * i)))
      done;
      procs
    end
  in
  r.chunk_pos <- pos + 16 + (4 * k);
  r.chunk_left <- r.chunk_left - 1;
  f ~task ~procs ~weight

(* One full pass over the stream from the current position. *)
let iter r f =
  let continue = ref true in
  while !continue do
    if r.chunk_left > 0 then read_record r f
    else if not (next_chunk r) then continue := false
  done

(* A SINGLEPROC-UNIT record is 20 bytes: task, the weight 1.0
   (0x3FF0000000000000), k = 1 and the processor.  The C loop
   (crc32_stubs.c) returns how many of the [count] records at [pos] come
   before the first one it refuses. *)
let unit_record_bytes = 20

external unit_run :
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "semimatch_unit_run_bytecode" "semimatch_unit_run"
[@@noalloc]

let[@inline] unit_task b off = get_u32 b off
let[@inline] unit_proc b off = get_u32 b (off + 16)

(* Under a singleton unit-weight header [read_record] accepts exactly the
   records the C loop accepts, so handing it a refused record raises
   [read_record]'s error, in [read_record]'s order. *)
let[@inline never] unit_record_error r =
  read_record r (fun ~task:_ ~procs:_ ~weight:_ -> ());
  assert false

(* The records a chunk holds whole, at most [chunk_left] of them, are
   checked in one C call; the reader is past the run before [f] sees it,
   and a record left in the chunk was refused.  The caller has checked
   the header. *)
let unit_runs r f =
  let n1 = r.hdr.h_n1 and n2 = r.hdr.h_n2 in
  while r.chunk_left > 0 || next_chunk r do
    let b = r.chunk and pos = r.chunk_pos in
    let whole = min r.chunk_left ((r.chunk_len - pos) / unit_record_bytes) in
    let count = unit_run b pos whole n1 n2 in
    r.chunk_pos <- pos + (unit_record_bytes * count);
    r.chunk_left <- r.chunk_left - count;
    if count > 0 then f b ~pos ~count;
    if r.chunk_left > 0 then unit_record_error r
  done

let iter_unit_chunks r f =
  if not (singleton r.hdr && unit_weight r.hdr) then
    invalid_arg "Stream_io.iter_unit_chunks: needs a singleton unit-weight stream";
  unit_runs r f

(* {2 Whole-file helpers} *)

let save path h =
  let open Graph in
  let w = create_writer ~path ~n1:h.n1 ~n2:h.n2 () in
  Fun.protect
    ~finally:(fun () -> close_writer w)
    (fun () ->
      for v = 0 to h.n1 - 1 do
        for e = h.task_off.(v) to h.task_off.(v + 1) - 1 do
          add_pins w ~task:v ~weight:h.w.(e) h.h_adj h.h_off.(e) h.h_off.(e + 1)
        done
      done)

(* Sized from the sealed header's counts, but never beyond what the bytes
   left in the file can hold (a record takes at least 20 bytes, a pin 4):
   the header is input like any other. *)
let read_graph r =
  let hdr = r.hdr in
  let bytes_left = max 0 (in_channel_length r.ic - r.file_pos) in
  let hyperedges = if sealed hdr then min hdr.h_records (bytes_left / 20) else 0 in
  let pins = if sealed hdr then min hdr.h_pins (bytes_left / 4) else 0 in
  let b = Graph.builder ~n1:hdr.h_n1 ~n2:hdr.h_n2 ~hyperedges ~pins in
  if singleton hdr && unit_weight hdr then
    unit_runs r (fun buf ~pos ~count ->
        for i = 0 to count - 1 do
          let off = pos + (unit_record_bytes * i) in
          Graph.add_pin b (unit_proc buf off);
          Graph.end_hyperedge b ~task:(unit_task buf off) ~weight:1.0
        done)
  else iter r (fun ~task ~procs ~weight -> Graph.add b ~task ~procs ~weight);
  Graph.build b

let load path =
  let r = open_reader path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> read_graph r)

(* {2 Validation (doctor)} *)

type report = {
  r_header : header option;  (** [None]: magic/version/size check failed *)
  r_records : int;  (** records readable before the first error *)
  r_pins : int;
  r_chunks : int;
  r_sealed : bool;
  r_counts_match : bool;  (** header counts equal scanned counts *)
  r_error : string option;  (** first framing or validation error *)
}

let validate path =
  let empty =
    {
      r_header = None;
      r_records = 0;
      r_pins = 0;
      r_chunks = 0;
      r_sealed = false;
      r_counts_match = false;
      r_error = None;
    }
  in
  match open_reader path with
  | exception Failure msg -> { empty with r_error = Some msg }
  | exception Sys_error msg -> { empty with r_error = Some msg }
  | r ->
      Fun.protect
        ~finally:(fun () -> close_reader r)
        (fun () ->
          let records = ref 0 and pins = ref 0 and chunks = ref 0 in
          let error = ref None in
          (try
             let continue = ref true in
             while !continue do
               if r.chunk_left > 0 then
                 read_record r (fun ~task:_ ~procs ~weight:_ ->
                     incr records;
                     pins := !pins + Array.length procs)
               else if next_chunk r then incr chunks
               else continue := false
             done
           with Failure msg -> error := Some msg);
          let sealed_file = sealed r.hdr in
          let counts_match =
            sealed_file && r.hdr.h_records = !records && r.hdr.h_pins = !pins && !error = None
          in
          {
            r_header = Some r.hdr;
            r_records = !records;
            r_pins = !pins;
            r_chunks = !chunks;
            r_sealed = sealed_file;
            r_counts_match = counts_match;
            r_error = !error;
          })
