(** Write-ahead journal: an append-only file of length-prefixed,
    CRC32-checksummed records.

    Record framing is [len(4 bytes LE)][crc32(4 bytes LE)][payload], where
    the checksum covers the payload only.  A crash can therefore leave at
    most a torn tail — a record whose length prefix, bytes or checksum are
    incomplete — and {!scan} stops at the first invalid record, reporting
    the clean prefix and how many trailing bytes must be truncated.  A
    record never spans files and is capped at 64 MiB (a larger length
    prefix is treated as corruption, not an allocation request).

    Durability is a policy, not a promise: [Always] fsyncs after every
    append (safe against power loss, slowest), [Interval s] fsyncs at most
    every [s] seconds (bounded loss window), [Never] leaves flushing to the
    OS.  A [kill -9] loses no acknowledged writes under any policy — the
    data is in the page cache — so the policies differ only for whole-box
    failures. *)

type policy = Always | Interval of float | Never

val policy_of_string : string -> policy
(** Parse ["always"], ["never"] or ["interval:MS"] (milliseconds, > 0).
    Raises [Failure] otherwise. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, reflected, as in zip/png): [crc32 "123456789" =
    0xCBF43926l]. *)

(* ---------- writing ---------- *)

type writer

val open_writer : ?policy:policy -> string -> writer
(** Open (creating if needed) for appending.  Default policy
    [Interval 0.1].  Raises [Unix.Unix_error] on I/O failure. *)

val append : writer -> string -> unit
(** Append one record and apply the fsync policy.  Raises
    [Invalid_argument] on a payload over the 64 MiB record cap. *)

val sync : writer -> unit
(** Unconditional fsync (no-op when nothing was appended since the last). *)

val tick : writer -> unit
(** Apply an [Interval] policy's clock: fsync when the interval elapsed
    and unsynced appends exist.  No-op for [Always]/[Never]. *)

val records_written : writer -> int
val close : writer -> unit
(** Final {!sync} then close.  Idempotent. *)

(* ---------- reading ---------- *)

type record = { payload : string; r_end : int  (** byte offset just past this record *) }

type scan = {
  s_records : record list;  (** the valid prefix, in append order *)
  s_valid_bytes : int;  (** bytes covered by [s_records] *)
  s_total_bytes : int;  (** file size; [> s_valid_bytes] means a torn tail *)
}

val scan : string -> scan
(** Total: a missing file reads as empty, and any framing/checksum
    violation simply ends the valid prefix — corruption is data here, not
    an exception. *)

val truncate : string -> int -> unit
(** [truncate path len] cuts the file to [len] bytes (drop a torn tail
    before appending).  Raises [Unix.Unix_error]. *)
