(* The kernels are C (crc32_stubs.c): carry-less multiplication where the
   CPU has it, slicing-by-16 elsewhere and for short ranges.  The tables are
   built and the kernel is picked here, once, while the module initialises,
   before any domain can call it. *)

external init : unit -> bool = "semimatch_crc32_init" [@@noalloc]

external unsafe_bytes : Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "semimatch_crc32_bytecode" "semimatch_crc32"
[@@noalloc]

let kernel = if init () then "clmul" else "slicing-by-16"

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.bytes";
  unsafe_bytes b pos len

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
