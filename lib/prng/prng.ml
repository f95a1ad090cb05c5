(* xoshiro256** by Blackman & Vigna, seeded via splitmix64.  Chosen over
   Stdlib.Random for cross-version output stability: instance generation must
   be bit-reproducible so that Table I statistics are stable. *)

(* The state words s0..s3 sit at byte offsets 0, 8, 16 and 24 of a 32-byte
   buffer and are read and written through the unboxed 64-bit primitives, so
   a step allocates nothing; mutable int64 record fields would box every
   word on every write.  The buffer is always 32 bytes long, which makes the
   unchecked accessors safe. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  let t = Bytes.create 32 in
  (* xoshiro256** is ill-defined on the all-zero state; splitmix64 cannot
     produce four consecutive zeros, so this is unreachable, but we guard to
     keep the invariant local. *)
  set t 0 (if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s0);
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step, inlined into every draw so that neither the state
   words nor the output are boxed. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 8 (logxor s1 s2);
  set t 16 (logxor s2 (shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let next_int64 t = next t

let split t =
  let seed = Int64.to_int (next t) in
  create ~seed

(* Non-negative 62-bit value. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    (* Rejection sampling on the top of the 62-bit range for exact
       uniformity: v lies in the block [v - r, v - r + bound) of the
       multiples of [bound], and the top block, the one holding 2^62 - 1,
       is rejected.  It is the only block whose end overflows the 63-bit
       int, so one division per draw decides; the draws kept are exactly
       those below m - m mod bound, m = 2^62 - 1. *)
    let v = ref (bits62 t) in
    let r = ref (!v mod bound) in
    while !v - !r + bound < 0 do
      v := bits62 t;
      r := !v mod bound
    done;
    !r
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)
let[@inline] float t bound = Float.of_int (bits53 t) *. 0x1p-53 *. bound

let bool t = Int64.to_int (next t) land 1 <> 0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: for j = n-k .. n-1, insert a uniform element of
     [0, j], replacing collisions by j itself. *)
  let module S = Set.Make (Int) in
  let seen = ref S.empty in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    if S.mem v !seen then seen := S.add j !seen else seen := S.add v !seen
  done;
  let out = Array.make k 0 in
  let i = ref 0 in
  S.iter
    (fun v ->
      out.(!i) <- v;
      incr i)
    !seen;
  out

let sample_with_replacement t ~k ~n =
  if k < 0 || n <= 0 then invalid_arg "Prng.sample_with_replacement";
  Array.init k (fun _ -> int t n)
