(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, as in zip/png),
    computed by a C kernel: carry-less multiplication (PCLMULQDQ) on ranges
    of 64 bytes or more where the CPU has it, slicing-by-16 otherwise.  Both
    give the same CRC.  One implementation frames both the edge-stream
    chunks ({!Stream_io}) and the daemon's journal records. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** CRC of [len] bytes from [pos], in [0, 2^32).  Raises
    [Invalid_argument] when the range is not inside the buffer. *)

val string : string -> int
(** CRC of a whole string: [string "123456789" = 0xCBF43926]. *)

val kernel : string
(** The kernel this CPU runs, chosen once at start-up: ["clmul"] or
    ["slicing-by-16"]. *)
