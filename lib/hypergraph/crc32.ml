(* The kernel is C (crc32_stubs.c, slicing-by-16).  Its tables are built
   here, while the module initialises, before any domain can call it. *)

external init : unit -> unit = "semimatch_crc32_init" [@@noalloc]

external unsafe_bytes : Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "semimatch_crc32_bytecode" "semimatch_crc32"
[@@noalloc]

let () = init ()

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.bytes";
  unsafe_bytes b pos len

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
