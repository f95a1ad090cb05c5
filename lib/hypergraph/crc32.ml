(* Slicing-by-8: table k (entries [k*256 .. k*256+255]) is the CRC of a
   byte followed by k zero bytes, so eight table lookups advance the CRC
   over eight input bytes at once.  Table 0 is the classic bytewise table;
   the tail of a buffer (fewer than eight bytes) goes through it one byte
   at a time.  Values stay below 2^32, so native ints hold them unboxed. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xff)
    done
  done;
  t

let[@inline] t k = Array.unsafe_get table k
let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.bytes";
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo =
      !c
      lxor (byte b p lor (byte b (p + 1) lsl 8) lor (byte b (p + 2) lsl 16) lor (byte b (p + 3) lsl 24))
    in
    c :=
      t (0x700 + (lo land 0xff))
      lxor t (0x600 + ((lo lsr 8) land 0xff))
      lxor t (0x500 + ((lo lsr 16) land 0xff))
      lxor t (0x400 + (lo lsr 24))
      lxor t (0x300 + byte b (p + 4))
      lxor t (0x200 + byte b (p + 5))
      lxor t (0x100 + byte b (p + 6))
      lxor t (byte b (p + 7));
    i := p + 8
  done;
  for j = !i to pos + len - 1 do
    c := t ((!c lxor byte b j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
