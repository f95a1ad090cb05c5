(** Binary edge-stream format: out-of-core hypergraph instances.

    A stream file is a version-tagged 36-byte header followed by CRC-framed
    chunks of hyperedge records.  Writer and reader are both O(one chunk) in
    memory, so instances with 10^7+ hyperedges can be produced (by the
    generators), stored, validated (by [doctor]) and consumed (by the
    streaming solvers in [lib/stream]) without ever materializing the
    in-core CSR that {!Hyper.Graph} would need.

    The header records three monotone flags computed while writing —
    every-record-singleton, every-weight-unit, task-grouped (nondecreasing
    task ids) — which the ingest tier uses to pick a solver, plus the record
    and pin counts, patched in place when the writer is closed.  A file
    whose count fields are still all-ones was never sealed; {!validate}
    reports that distinctly from a torn or corrupt chunk. *)

val version : int
(** Format version written into new headers (currently 1). *)

val header_bytes : int

type header = {
  h_version : int;
  h_flags : int;
  h_n1 : int;  (** tasks *)
  h_n2 : int;  (** processors *)
  h_records : int;  (** hyperedge count; [-1] when the writer never sealed *)
  h_pins : int;  (** total pin count; [-1] when unsealed *)
}

val singleton : header -> bool
(** Every record has exactly one processor (bipartite/SINGLEPROC shape). *)

val unit_weight : header -> bool
(** Every record weight is 1.0. *)

val task_grouped : header -> bool
(** Task ids are nondecreasing, so each task's records are contiguous. *)

val sealed : header -> bool

val csr_estimate_words : header -> int option
(** Words the in-core {!Hyper.Graph} CSR of this instance would occupy
    (offsets + pins + weights); [None] until sealed.  This is the yardstick
    the ingest threshold and the memory-bound assertions compare against. *)

(** {1 Writer} *)

type writer

val create_writer : ?chunk_records:int -> path:string -> n1:int -> n2:int -> unit -> writer
(** Opens [path] and writes an unsealed header.  [chunk_records] bounds the
    buffered records per chunk (default 8192). *)

val add : writer -> task:int -> procs:int array -> weight:float -> unit
(** Append one hyperedge.  Validates exactly like [Hyper.Graph.create]
    (ranges, positive weight, nonempty and duplicate-free pins); raises
    [Invalid_argument] otherwise. *)

val writer_records : writer -> int

val close_writer : writer -> unit
(** Flush the tail chunk and seal the header (patch counts + flags) in
    place.  Idempotent. *)

(** {1 Reader} *)

type reader

val open_reader : string -> reader
(** Validates the header (magic, version, size caps); raises [Failure] with
    a descriptive message on anything that is not an edge stream. *)

val header : reader -> header
val close_reader : reader -> unit

val rewind : reader -> unit
(** Seek back to the first chunk — the few-pass solvers re-read the file
    once per pass. *)

val iter : reader -> (task:int -> procs:int array -> weight:float -> unit) -> unit
(** One full pass from the current position.  Each record is range-checked
    against the header sizes; raises [Failure] at the first torn or corrupt
    frame ([validate] is the forgiving variant).  [procs] is a fresh array
    per record that the callback owns: it may keep it across records.
    Under a singleton header a record with several processors is an error,
    and so is a weight other than 1.0 under a unit-weight header. *)

val iter_unit_chunks : reader -> (Bytes.t -> pos:int -> count:int -> unit) -> unit
(** {!iter} for a singleton unit-weight stream, a run of records at a
    time: [f buf ~pos ~count] receives [count >= 1] accepted records, back
    to back in [buf] from byte [pos], [unit_record_bytes] each; read them
    with {!unit_task} and {!unit_proc}.  A C loop checks a chunk's records
    up to the first one it refuses (task below n1, weight 1.0, one pin,
    processor below n2), and that record then raises {!iter}'s [Failure]
    once the run before it has been delivered, so [f] sees exactly
    {!iter}'s records in its order.  Nothing is allocated per record.
    [buf] is the reader's chunk buffer: it is valid until [f] returns, and
    [f] must not modify it.  Raises [Invalid_argument] unless the header
    says singleton and unit-weight.  If [f] raises, {!rewind} before
    reading on. *)

val unit_record_bytes : int
(** Bytes per SINGLEPROC-UNIT record (20): task, weight, pin count, the
    processor. *)

val unit_task : Bytes.t -> int -> int
(** [unit_task buf off]: the task of the record at byte [off] of a run. *)

val unit_proc : Bytes.t -> int -> int
(** [unit_proc buf off]: the processor of the record at byte [off] of a
    run.  Both accessors check their bounds against [buf]. *)

(** {1 Whole-file convenience} *)

val save : string -> Graph.t -> unit
(** Write an in-core graph out as a (sealed) stream file. *)

val read_graph : reader -> Graph.t
(** Materialize the records from the current position as an in-core graph
    — the ingest fallback for instances that fit.  The graph's arrays are
    sized from the sealed header's counts (capped by the bytes left in the
    file).  A singleton unit-weight stream is read in {!iter_unit_chunks}'s
    runs.  Raises [Failure] like {!iter} and [Invalid_argument] like
    {!Graph.build}. *)

val load : string -> Graph.t
(** {!read_graph} of a whole file. *)

(** {1 Validation (doctor)} *)

type report = {
  r_header : header option;  (** [None] when the header itself is invalid *)
  r_records : int;  (** records readable before the first error *)
  r_pins : int;
  r_chunks : int;
  r_sealed : bool;
  r_counts_match : bool;  (** sealed, error-free, and header counts equal the scan *)
  r_error : string option;  (** first framing or validation error, with offset *)
}

val validate : string -> report
(** Walk the chunk chain like the journal scanner: stop at the first frame
    whose length, bytes or checksum don't hold up and report the valid
    prefix alongside the error.  Never raises. *)
