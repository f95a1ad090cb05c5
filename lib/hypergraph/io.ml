(* The .hg text format, read and written without intermediate lists.

   Reading is two passes over the bytes.  The first, in C (hg_stubs.c),
   counts the [h] lines and their pins, so that the graph builder's arrays
   are sized exactly for every text [to_string] writes.  The second gives
   each line to one of two readers:

   - Canonical hyperedge lines ([h], then plain-digit fields each after one
     space, at most 18 digits or 15 for the weight, ending at '\n' or at the
     end of the text), as [to_string] writes every hyperedge of integer
     weight below 1e6, go to one C loop, [Graph.add_canonical_lines], which
     checks each as the builder would and writes it straight into the
     builder's arrays.  It stops before the first line it refuses: a line
     that is not canonical, or whose hyperedge is invalid, would regroup the
     builder, would grow an array or has more than 32 pins.
   - The general scanner reads that line, with index cursors and without a
     string, list or tuple per line or per field, and the C loop resumes
     after it.  So every message, and the builder's work on every case the
     C loop leaves alone, are the general scanner's.

   The accepted language is exactly that of a split-and-trim reading: lines
   split on '\n'; each trimmed of String.trim's whitespace; '#' starts a
   comment only as a line's first non-blank character; fields split on ' '
   only (a tab stays part of a token); an [h] line needs at least three
   fields.  Plain-digit tokens are converted in place (at most 18 digits for
   an int, 15 for a weight, both exact); every other token goes through
   int_of_string_opt / float_of_string_opt, so "0x1F", "1_000", "+3",
   "1e+06" or "nan" read as those functions read them.

   Error precedence: a line-numbered [Failure] on any line wins over a
   semantic [Invalid_argument], because the builder only records semantic
   failures and raises the first one from [Graph.build], after the scan. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* "%g" prints an integer weight below 1e6 as its plain digits. *)
let add_weight buf x =
  if Float.is_integer x && x >= 1.0 && x < 1e6 then add_digits buf (int_of_float x)
  else Buffer.add_string buf (Printf.sprintf "%g" x)

let to_string h =
  let open Graph in
  let digits n = String.length (string_of_int n) in
  let buf =
    Buffer.create (32 + (num_hyperedges h * (6 + digits h.n1)) + (num_pins h * (1 + digits h.n2)))
  in
  Buffer.add_string buf "hypergraph ";
  add_digits buf h.n1;
  Buffer.add_char buf ' ';
  add_digits buf h.n2;
  Buffer.add_char buf '\n';
  for v = 0 to h.n1 - 1 do
    for e = h.task_off.(v) to h.task_off.(v + 1) - 1 do
      Buffer.add_string buf "h ";
      add_digits buf v;
      Buffer.add_char buf ' ';
      add_weight buf h.w.(e);
      for i = h.h_off.(e) to h.h_off.(e + 1) - 1 do
        Buffer.add_char buf ' ';
        add_digits buf h.h_adj.(i)
      done;
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf

(* Header sizes bound allocations (the graph's [task_off] has n1+1 slots;
   nothing is sized by n2, which only bounds processor ids), so a hostile
   20-byte header must not be able to request terabytes: cap them here,
   with a line-numbered error, before any allocation happens. *)
let max_side = 100_000_000

let[@inline] is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* Scanner state.  [pos] is the next byte to read and [line_start] the
   first byte of the line being read; the current field is [tok, stop), and
   [num] its value when it is a run of plain digits.

   Fields end at ' ' or at the '\n' that ends the line, so a line is
   trimmed without first finding its end, except in one case: a field
   holding a tab, CR or form feed may run into the line's trailing blanks.
   Only then is [line_end], the trimmed end of the line, computed (it is -1
   until needed) and the field clipped to it. *)
type scanner = {
  text : string;
  len : int;
  mutable pos : int;
  mutable line_start : int;
  mutable line_end : int;
  mutable tok : int;
  mutable stop : int;
  mutable num : int;
}

(* The current line's number is one more than the '\n's before it: counted
   only for the message, since the C loop reads lines uncounted. *)
let fail s msg =
  let line_no = ref 1 in
  for i = 0 to s.line_start - 1 do
    if String.unsafe_get s.text i = '\n' then incr line_no
  done;
  failwith (Printf.sprintf "Hyper.Io: line %d: %s" !line_no msg)

let trimmed_end s =
  if s.line_end < 0 then begin
    let e = ref s.pos in
    while !e < s.len && String.unsafe_get s.text !e <> '\n' do
      incr e
    done;
    while !e > 0 && is_blank (String.unsafe_get s.text (!e - 1)) do
      decr e
    done;
    s.line_end <- !e
  end;
  s.line_end

let rec field_end text len i =
  if i < len && String.unsafe_get text i <> ' ' && String.unsafe_get text i <> '\n' then field_end text len (i + 1)
  else i

let rec has_blank text i j = i < j && (is_blank (String.unsafe_get text i) || has_blank text (i + 1) j)

(* Value of the token [i, j), or -1 when it has a non-digit.  More than 18
   digits may wrap. *)
let rec plain_digits text i j acc =
  if i = j then acc
  else
    let d = Char.code (String.unsafe_get text i) - 48 in
    if d < 0 || d > 9 then -1 else plain_digits text (i + 1) j ((acc * 10) + d)

(* The rest of a field that is not plain digits, from its first non-digit
   [i]. *)
let other_field s start i =
  let text = s.text in
  let e = field_end text s.len i in
  s.pos <- e;
  let stop = if has_blank text i e then min e (trimmed_end s) else e in
  (* a field of nothing but trailing blanks: the line is over *)
  stop > start
  && begin
       s.tok <- start;
       s.stop <- stop;
       s.num <- plain_digits text start stop 0;
       true
     end

(* Move to the next field of the current line: [true] with the field in
   [tok, stop), [false] at the end of the line.  Plain digits, the common
   case, are converted on the way. *)
let next_field s =
  let text = s.text and len = s.len in
  let i = ref s.pos in
  while !i < len && String.unsafe_get text !i = ' ' do
    incr i
  done;
  let start = !i in
  if start = len || String.unsafe_get text start = '\n' then begin
    s.pos <- start;
    false
  end
  else begin
    let num = ref 0 in
    while !i < len && String.unsafe_get text !i >= '0' && String.unsafe_get text !i <= '9' do
      num := (!num * 10) + Char.code (String.unsafe_get text !i) - 48;
      incr i
    done;
    if !i = len || String.unsafe_get text !i = ' ' || String.unsafe_get text !i = '\n' then begin
      s.pos <- !i;
      s.tok <- start;
      s.stop <- !i;
      s.num <- !num;
      true
    end
    else other_field s start !i
  end

let rec same text i word k =
  k = String.length word
  || (String.unsafe_get text (i + k) = String.unsafe_get word k && same text i word (k + 1))

let field_is s word = s.stop - s.tok = String.length word && same s.text s.tok word 0

(* Plain digits, at most 18 of them for an int and 15 for a weight, convert
   exactly in place. *)
let int_at s ~tok ~stop ~num err =
  if num >= 0 && stop - tok <= 18 then num
  else
    match int_of_string_opt (String.sub s.text tok (stop - tok)) with
    | Some v -> v
    | None -> fail s err

let int_field s err = int_at s ~tok:s.tok ~stop:s.stop ~num:s.num err

let float_field s err =
  if s.num >= 0 && s.stop - s.tok <= 15 then float_of_int s.num
  else
    match float_of_string_opt (String.sub s.text s.tok (s.stop - s.tok)) with
    | Some x -> x
    | None -> fail s err

(* One non-blank, non-comment line, from its first field: a header, which
   creates the builder, or a hyperedge, whose pins go straight into it. *)
let parse_line s builder ~hyperedges ~pins =
  ignore (next_field s : bool);
  if field_is s "hypergraph" then begin
    if Option.is_some !builder then fail s "duplicate header";
    let err = "expected: hypergraph <n1> <n2>" in
    if not (next_field s) then fail s err;
    let n1 = int_field s err in
    if not (next_field s) then fail s err;
    let n2 = int_field s err in
    if next_field s then fail s err;
    if n1 < 0 || n2 < 0 then fail s "sizes must be non-negative";
    if n1 > max_side || n2 > max_side then fail s "sizes out of range";
    builder := Some (Graph.builder ~n1 ~n2 ~hyperedges ~pins)
  end
  else if field_is s "h" then begin
    if not (next_field s) then fail s "unrecognized line";
    let tok = s.tok and stop = s.stop and num = s.num in
    if not (next_field s) then fail s "unrecognized line";
    match !builder with
    | None -> fail s "hyperedge before header"
    | Some g ->
        let err = "expected: h <task> <weight> <procs...>" in
        let task = int_at s ~tok ~stop ~num err in
        let weight = float_field s err in
        while next_field s do
          Graph.add_pin g (int_field s "bad processor id")
        done;
        Graph.end_hyperedge g ~task ~weight
  end
  else fail s "unrecognized line"

external count_lines : string -> int array -> unit = "semimatch_hg_count" [@@noalloc]

let of_string text =
  let counts = [| 0; 0 |] in
  count_lines text counts;
  let len = String.length text in
  let s = { text; len; pos = 0; line_start = 0; line_end = -1; tok = 0; stop = 0; num = 0 } in
  let builder = ref None in
  (* Lines as String.split_on_char '\n' gives them: "" is one line, and a
     trailing '\n' ends one more. *)
  while s.pos <= len do
    (match !builder with Some b -> s.pos <- Graph.add_canonical_lines b text s.pos | None -> ());
    if s.pos <= len then begin
      s.line_start <- s.pos;
      s.line_end <- -1;
      while s.pos < len && String.unsafe_get text s.pos <> '\n' && is_blank (String.unsafe_get text s.pos) do
        s.pos <- s.pos + 1
      done;
      if s.pos < len && String.unsafe_get text s.pos <> '\n' && String.unsafe_get text s.pos <> '#' then
        parse_line s builder ~hyperedges:counts.(0) ~pins:counts.(1);
      while s.pos < len && String.unsafe_get text s.pos <> '\n' do
        s.pos <- s.pos + 1
      done;
      s.pos <- s.pos + 1
    end
  done;
  match !builder with
  | None -> failwith "Hyper.Io: missing header"
  | Some g -> Graph.build g

let save path h =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string h))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
