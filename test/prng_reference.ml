(* The generator as it was while its state lived in a record of four mutable
   int64 fields, kept as the oracle for [Randkit.Prng]: every stream the
   library produces must equal this one, draw for draw.  The code is
   verbatim; comments and [bits30], which nothing called, are left out. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

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
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (next_int64 t) in
  create ~seed

let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (max62 mod bound) in
    let rec draw () =
      let v = bits62 t in
      if v >= limit then draw () else v mod bound
    in
    draw ()
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.compare (Int64.logand (next_int64 t) 1L) 0L <> 0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
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
