module Io = Hyper.Io
module H = Hyper.Graph

let check = Alcotest.(check bool)

let sample () =
  H.create ~n1:3 ~n2:4
    ~hyperedges:
      [
        (0, [| 0 |], 2.5);
        (0, [| 1; 2 |], 1.0);
        (1, [| 3 |], 4.0);
        (2, [| 0; 1; 2; 3 |], 0.5);
      ]

let equal_hypergraphs a b =
  a.H.n1 = b.H.n1 && a.H.n2 = b.H.n2 && a.H.task_off = b.H.task_off && a.H.h_off = b.H.h_off
  && a.H.h_adj = b.H.h_adj && a.H.w = b.H.w

let test_roundtrip () =
  let h = sample () in
  let h' = Io.of_string (Io.to_string h) in
  check "roundtrip identical" true (equal_hypergraphs h h')

let test_file_roundtrip () =
  let h = sample () in
  let path = Filename.temp_file "semimatch" ".hg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path h;
      check "file roundtrip" true (equal_hypergraphs h (Io.load path)))

let test_comments_and_blanks () =
  let text = "# a comment\n\nhypergraph 1 2\n# another\n  h 0 1.5 0 1  \n" in
  let h = Io.of_string text in
  Alcotest.(check int) "one hyperedge" 1 (H.num_hyperedges h);
  Alcotest.(check (float 1e-9)) "weight parsed" 1.5 (H.h_weight h 0)

let expect_failure text fragment =
  match Io.of_string text with
  | exception Failure msg ->
      let contains =
        let nl = String.length fragment and hl = String.length msg in
        let rec scan i = i + nl <= hl && (String.sub msg i nl = fragment || scan (i + 1)) in
        scan 0
      in
      check ("error mentions " ^ fragment) true contains
  | _ -> Alcotest.fail "expected parse failure"

let test_parse_errors () =
  expect_failure "h 0 1 0\n" "before header";
  expect_failure "hypergraph 1\n" "expected: hypergraph";
  expect_failure "hypergraph 1 1\nbogus\n" "unrecognized";
  expect_failure "hypergraph 1 1\nh 0 x 0\n" "expected: h";
  expect_failure "hypergraph 1 1\nh 0 1 zero\n" "bad processor";
  expect_failure "" "missing header";
  expect_failure "hypergraph 1 1\nhypergraph 1 1\n" "duplicate header"

let test_semantic_errors_propagate () =
  match Io.of_string "hypergraph 1 1\nh 0 1 5\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range error from Graph.create"

let test_generated_roundtrip () =
  let rng = Randkit.Prng.create ~seed:99 in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:200 ~p:32 ~dv:3 ~dh:5 ~g:4
      ~weights:Hyper.Weights.Related
  in
  check "generated instance roundtrips" true (equal_hypergraphs h (Io.of_string (Io.to_string h)))

let parser_total_prop =
  QCheck.Test.make ~name:"parser is total: Failure/Invalid_argument or a valid graph" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 200) QCheck.Gen.printable)
    (fun text ->
      match Io.of_string text with
      | h -> H.num_hyperedges h >= 0
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true)

let parser_structured_fuzz_prop =
  (* Fuzz with near-miss inputs built from the grammar's own tokens. *)
  QCheck.Test.make ~name:"parser survives token-soup inputs" ~count:500
    QCheck.(list_of_size (QCheck.Gen.int_bound 30)
              (oneofl [ "hypergraph"; "h"; "#x"; "0"; "1"; "2"; "-1"; "1.5"; "nan"; " "; "\n"; "z" ]))
    (fun tokens ->
      let text = String.concat " " tokens in
      match Io.of_string text with
      | h -> H.num_hyperedges h >= 0
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true)

(* The only acceptable parser outcomes on arbitrary bytes: a valid graph, a
   line-numbered [Failure], or [Invalid_argument] from semantic validation.
   Anything else (Not_found, array bounds, Out_of_memory from a hostile
   header) is a parser hole. *)
let total_on text =
  match Io.of_string text with
  | h -> H.num_hyperedges h >= 0
  | exception Failure msg ->
      String.length msg >= 9 && String.sub msg 0 9 = "Hyper.Io:"
  | exception Invalid_argument _ -> true

let parser_hostile_bytes_prop =
  (* Unrestricted byte strings: NUL bytes, control characters, invalid
     UTF-8 — the parser must stay total over the full byte range. *)
  QCheck.Test.make ~name:"parser survives arbitrary byte strings" ~count:1000
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 120) (QCheck.Gen.int_range 0 255 |> QCheck.Gen.map Char.chr))
    total_on

let parser_truncation_prop =
  (* Every prefix of a valid serialization must parse or fail cleanly. *)
  QCheck.Test.make ~name:"parser survives truncated serializations" ~count:200
    QCheck.(int_bound 10_000)
    (fun cut ->
      let text = Io.to_string (sample ()) in
      total_on (String.sub text 0 (min cut (String.length text))))

let parser_mutation_prop =
  (* Single-byte corruptions of a valid serialization. *)
  QCheck.Test.make ~name:"parser survives mutated serializations" ~count:500
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (pos, byte) ->
      let text = Bytes.of_string (Io.to_string (sample ())) in
      Bytes.set text (pos mod Bytes.length text) (Char.chr byte);
      total_on (Bytes.to_string text))

let test_hostile_header_sizes () =
  (* A ~20-byte header must not be able to request terabytes of arrays. *)
  expect_failure "hypergraph 999999999999 2\n" "out of range";
  expect_failure "hypergraph 2 999999999999\n" "out of range";
  expect_failure "hypergraph -1 2\n" "non-negative";
  expect_failure "hypergraph 1 -7\n" "non-negative"

(* ------------------------------------------------------------ oracle *)

(* The list-based reader and [Graph.create] that the single-pass scanner
   and the sized builder replaced, kept verbatim as the oracle: on every
   input the library must give the same graph (weights compared by bits)
   or the same exception with the same message. *)
module Reference = struct
  type graph = {
    n1 : int;
    n2 : int;
    task_off : int array;
    h_off : int array;
    h_adj : int array;
    w : float array;
  }

  let validate_hyperedge ~n1 ~n2 (task, procs, weight) =
    if task < 0 || task >= n1 then invalid_arg "Hyper.Graph: task out of range";
    if not (weight > 0.0) then invalid_arg "Hyper.Graph: weight must be positive";
    if Array.length procs = 0 then invalid_arg "Hyper.Graph: empty processor set";
    let seen = Hashtbl.create (Array.length procs) in
    Array.iter
      (fun u ->
        if u < 0 || u >= n2 then invalid_arg "Hyper.Graph: processor out of range";
        if Hashtbl.mem seen u then invalid_arg "Hyper.Graph: duplicate processor in hyperedge";
        Hashtbl.add seen u ())
      procs

  let create ~n1 ~n2 ~hyperedges =
    if n1 < 0 || n2 < 0 then invalid_arg "Hyper.Graph.create: negative size";
    List.iter (validate_hyperedge ~n1 ~n2) hyperedges;
    let nh = List.length hyperedges in
    let task_off = Array.make (n1 + 1) 0 in
    List.iter (fun (v, _, _) -> task_off.(v + 1) <- task_off.(v + 1) + 1) hyperedges;
    for v = 1 to n1 do
      task_off.(v) <- task_off.(v) + task_off.(v - 1)
    done;
    let cursor = Array.copy task_off in
    let slot_of = Array.make nh 0 in
    List.iteri
      (fun i (v, _, _) ->
        slot_of.(i) <- cursor.(v);
        cursor.(v) <- cursor.(v) + 1)
      hyperedges;
    let sizes = Array.make nh 0 in
    let weights = Array.make nh 0.0 in
    List.iteri
      (fun i (_, procs, weight) ->
        sizes.(slot_of.(i)) <- Array.length procs;
        weights.(slot_of.(i)) <- weight)
      hyperedges;
    let h_off = Array.make (nh + 1) 0 in
    for h = 0 to nh - 1 do
      h_off.(h + 1) <- h_off.(h) + sizes.(h)
    done;
    let h_adj = Array.make h_off.(nh) 0 in
    List.iteri
      (fun i (_, procs, _) ->
        let base = h_off.(slot_of.(i)) in
        Array.iteri (fun k u -> h_adj.(base + k) <- u) procs)
      hyperedges;
    { n1; n2; task_off; h_off; h_adj; w = weights }

  let fail line_no msg = failwith (Printf.sprintf "Hyper.Io: line %d: %s" line_no msg)
  let max_side = 100_000_000

  let of_string text =
    let lines = String.split_on_char '\n' text in
    let header = ref None in
    let hyperedges = ref [] in
    List.iteri
      (fun i line ->
        let line_no = i + 1 in
        let line = String.trim line in
        if line <> "" && not (String.length line > 0 && line.[0] = '#') then begin
          let fields = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
          match fields with
          | "hypergraph" :: rest -> (
              if !header <> None then fail line_no "duplicate header";
              match List.map int_of_string_opt rest with
              | [ Some n1; Some n2 ] ->
                  if n1 < 0 || n2 < 0 then fail line_no "sizes must be non-negative";
                  if n1 > max_side || n2 > max_side then fail line_no "sizes out of range";
                  header := Some (n1, n2)
              | _ -> fail line_no "expected: hypergraph <n1> <n2>")
          | "h" :: task :: weight :: procs -> (
              if !header = None then fail line_no "hyperedge before header";
              match (int_of_string_opt task, float_of_string_opt weight) with
              | Some task, Some weight ->
                  let procs =
                    List.map
                      (fun s ->
                        match int_of_string_opt s with
                        | Some u -> u
                        | None -> fail line_no "bad processor id")
                      procs
                  in
                  hyperedges := (task, Array.of_list procs, weight) :: !hyperedges
              | _ -> fail line_no "expected: h <task> <weight> <procs...>")
          | _ -> fail line_no "unrecognized line"
        end)
      lines;
    match !header with
    | None -> failwith "Hyper.Io: missing header"
    | Some (n1, n2) -> create ~n1 ~n2 ~hyperedges:(List.rev !hyperedges)

  (* [to_string] as it was: one [h_task] search per hyperedge and one
     [sprintf] per field. *)
  let to_string h =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Printf.sprintf "hypergraph %d %d\n" h.H.n1 h.H.n2);
    for e = 0 to H.num_hyperedges h - 1 do
      Buffer.add_string buf (Printf.sprintf "h %d %g" (H.h_task h e) (H.h_weight h e));
      H.iter_h_procs h e (fun u -> Buffer.add_string buf (Printf.sprintf " %d" u));
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
end

type outcome = Graph of Reference.graph | Failed of string | Invalid of string

let outcome f text =
  match f text with
  | g -> Graph g
  | exception Failure msg -> Failed msg
  | exception Invalid_argument msg -> Invalid msg

let view h =
  { Reference.n1 = h.H.n1; n2 = h.H.n2; task_off = h.H.task_off; h_off = h.H.h_off; h_adj = h.H.h_adj; w = h.H.w }

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_outcome a b =
  match (a, b) with
  | Graph x, Graph y ->
      x.n1 = y.n1 && x.n2 = y.n2 && x.task_off = y.task_off && x.h_off = y.h_off && x.h_adj = y.h_adj
      && same_bits x.w y.w
  | Failed x, Failed y | Invalid x, Invalid y -> String.equal x y
  | _ -> false

let show = function
  | Graph g -> Printf.sprintf "graph n1=%d n2=%d hyperedges=%d" g.n1 g.n2 (Array.length g.w)
  | Failed m -> "Failure " ^ m
  | Invalid m -> "Invalid_argument " ^ m

let agrees_with_reference text =
  let got = outcome (fun t -> view (Io.of_string t)) text and want = outcome Reference.of_string text in
  same_outcome got want
  || QCheck.Test.fail_reportf "input %S\n  scanner:   %s\n  reference: %s" text (show got) (show want)

let tokens =
  [|
    "hypergraph"; "h"; "0"; "1"; "2"; "3"; "007"; "-1"; "1.5"; "0.25"; "0x3"; "0x1F"; "1_0"; "+1";
    "1e0"; "1e+06"; "inf"; "nan"; "-0"; "12345678901234567890"; "999999999999999999";
    "4611686018427387904"; "1234567890123456"; "#"; "#x"; "x"; "\t"; "\r"; "2\t"; "\t3"; "1\r";
    "\012"; "h\t"; "";
  |]

let separators = [| " "; " "; " "; "  "; "\t"; "\r"; "\n"; "\r\n"; " \r\n"; "\n  # note\n"; "\t\n" |]

let token_soup =
  let open QCheck.Gen in
  let line =
    let* first = oneofl [ "h"; "h"; "h"; "hypergraph"; " h"; "\th"; "#"; "x" ] in
    let* rest = list_size (int_bound 6) (pair (oneofa separators) (oneofa tokens)) in
    return (first ^ String.concat "" (List.map (fun (sep, tok) -> sep ^ tok) rest))
  in
  let* header = oneofl [ "hypergraph 3 4\n"; "hypergraph 3 4\n"; "hypergraph 2 2\r\n"; ""; "  hypergraph\t1 3 \n" ] in
  let* lines = list_size (int_bound 8) line in
  let* ending = oneofl [ ""; "\n"; "\r\n"; " "; "\n\n" ] in
  return (header ^ String.concat "\n" lines ^ ending)

(* Unit, Related or Random weights by seed. *)
let small_instance seed =
  let rng = Randkit.Prng.create ~seed in
  let weights = if seed mod 3 = 1 then Hyper.Weights.Related else Hyper.Weights.Unit in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:(2 + (seed mod 7)) ~p:6 ~dv:2
      ~dh:3 ~g:2 ~weights
  in
  if seed mod 3 = 2 then Hyper.Weights.apply ~rng Hyper.Weights.default_random h else h

let mutation_bytes = " \n\t\r#0123456789hx-._e+"

let mutated_serialization =
  let open QCheck.Gen in
  let* seed = int_bound 1000 in
  let* edits = list_size (int_range 1 4) (triple (int_bound 10_000) (int_bound 2) (int_bound 100)) in
  let text =
    List.fold_left
      (fun text (pos, kind, c) ->
        let n = String.length text in
        let pos = if n = 0 then 0 else pos mod n in
        let c = String.make 1 mutation_bytes.[c mod String.length mutation_bytes] in
        match kind with
        | 0 -> String.sub text 0 pos ^ c ^ String.sub text (min n (pos + 1)) (max 0 (n - pos - 1))
        | 1 -> String.sub text 0 pos ^ c ^ String.sub text pos (n - pos)
        | _ -> String.sub text 0 pos ^ String.sub text (min n (pos + 1)) (max 0 (n - pos - 1)))
      (Io.to_string (small_instance seed))
      edits
  in
  let* cut = int_bound (String.length text + 20) in
  oneofl [ text; String.sub text 0 (min cut (String.length text)) ]

(* A serialization with a few fields, separators and line ends swapped for
   odd but often still valid spellings ("0x3", "+1", "007", "1e0", a
   20-digit weight, a tab inside a field, a CR line end): most of these
   parse, so the fast paths and their fallbacks are compared on whole
   graphs, not only on error messages. *)
let respelled_serialization =
  let open QCheck.Gen in
  let* seed = int_bound 1000 in
  let* fields = list_size (int_range 1 3) (triple nat nat (oneofa tokens)) in
  let* seps = list_size (int_bound 2) (triple nat nat (oneofa separators)) in
  let* ends = list_size (int_bound 2) (pair nat (oneofl [ "\r"; " "; "\t"; " \r"; "\t\r" ])) in
  let lines =
    Array.of_list
      (List.map
         (fun l -> Array.of_list (String.split_on_char ' ' l))
         (String.split_on_char '\n' (Io.to_string (small_instance seed))))
  in
  let n = Array.length lines in
  let seps_of = Array.map (fun l -> Array.make (Array.length l) " ") lines in
  let ends_of = Array.make n "" in
  List.iter (fun (i, j, t) -> lines.(i mod n).(j mod Array.length lines.(i mod n)) <- t) fields;
  List.iter (fun (i, j, t) -> seps_of.(i mod n).(j mod Array.length seps_of.(i mod n)) <- t) seps;
  List.iter (fun (i, t) -> ends_of.(i mod n) <- t) ends;
  let line i l =
    String.concat "" (List.mapi (fun j f -> (if j = 0 then "" else seps_of.(i).(j)) ^ f) (Array.to_list l))
    ^ ends_of.(i)
  in
  return (String.concat "\n" (List.mapi line (Array.to_list lines)))

let crlf s = String.concat "\r\n" (String.split_on_char '\n' s)

let oracle_token_soup_prop =
  QCheck.Test.make ~name:"scanner = reference reader on token soups" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
    agrees_with_reference

let oracle_mutation_prop =
  QCheck.Test.make ~name:"scanner = reference reader on mutated/truncated serializations" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") mutated_serialization)
    agrees_with_reference

let oracle_respelled_prop =
  QCheck.Test.make ~name:"scanner = reference reader on respelled serializations" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") respelled_serialization)
    agrees_with_reference

let oracle_bytes_prop =
  QCheck.Test.make ~name:"scanner = reference reader on arbitrary bytes" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_bound 120) (Gen.map Char.chr (Gen.int_range 0 255)))
    agrees_with_reference

let test_oracle_generated () =
  for seed = 0 to 59 do
    let text = Io.to_string (small_instance seed) in
    List.iter
      (fun text -> check "scanner = reference" true (agrees_with_reference text))
      [ text; crlf text; "# generated\n" ^ text ^ "\n\n"; String.concat " \t\n" (String.split_on_char '\n' text) ]
  done;
  let rng = Randkit.Prng.create ~seed:7 in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:300 ~p:40 ~dv:4 ~dh:6 ~g:4
      ~weights:Hyper.Weights.Related
  in
  check "large instance = reference" true (agrees_with_reference (Io.to_string h));
  check "large CRLF instance = reference" true (agrees_with_reference (crlf (Io.to_string h)))

(* Ungrouped input: hyperedges are regrouped by task, each task keeping its
   input order — also when the first out-of-order task comes after a
   task-grouped prefix. *)
let test_ungrouped_order () =
  let text = "hypergraph 3 4\nh 0 1 0\nh 0 2 1\nh 1 3 2\nh 0 4 3\nh 2 5 0\nh 1 6 1\nh 0 7 2\n" in
  check "scanner = reference" true (agrees_with_reference text);
  let h = Io.of_string text in
  let weights v =
    let acc = ref [] in
    H.iter_task_hyperedges h v (fun e -> acc := H.h_weight h e :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (float 0.0))) "task 0" [ 1.0; 2.0; 4.0; 7.0 ] (weights 0);
  Alcotest.(check (list (float 0.0))) "task 1" [ 3.0; 6.0 ] (weights 1);
  Alcotest.(check (list (float 0.0))) "task 2" [ 5.0 ] (weights 2);
  Alcotest.(check (array int)) "pins follow their hyperedges" [| 0; 1; 3; 2; 2; 1; 0 |] h.H.h_adj

let forty_pins ~repeat =
  let pins = List.init 40 (fun i -> string_of_int ((if repeat && i = 39 then 7 else i) * 2_400_000)) in
  "hypergraph 1 100000000\nh 0 1 " ^ String.concat " " pins ^ "\n"

(* A 25-byte header may name n2 = 1e8: the duplicate check must not
   allocate per processor. *)
let test_hostile_n2_allocation () =
  let text = forty_pins ~repeat:false in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let h = Io.of_string text in
  (* the runtime adds minor-heap words to the count at a collection *)
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "40 pins" 40 (H.num_pins h);
  check (Printf.sprintf "allocates under 1 MB (%.0f bytes)" bytes) true (bytes < 1e6);
  Alcotest.check_raises "a repeated processor is still caught"
    (Invalid_argument "Hyper.Graph: duplicate processor in hyperedge") (fun () ->
      ignore (Io.of_string (forty_pins ~repeat:true)))

(* Weights print as "%g" prints them; the integer shortcut below 1e6 must
   not change a byte. *)
let test_to_string_bytes () =
  let rng = Randkit.Prng.create ~seed:11 in
  let gen weights =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Hilo ~n:120 ~p:16 ~dv:3 ~dh:4 ~g:4 ~weights
  in
  let unit = gen Hyper.Weights.Unit and related = gen Hyper.Weights.Related in
  let random = Hyper.Weights.apply ~rng Hyper.Weights.default_random related in
  let odd =
    H.create ~n1:2 ~n2:12
      ~hyperedges:
        (List.mapi
           (fun i w -> (i mod 2, [| i |], w))
           [ 1e6; 123456.0; 0.5; 1e-7; 999999.0; 1000001.0; 0.1; 1.0; 3.0; 1e21; 5e-324; 1234567.0 ])
  in
  List.iter
    (fun (name, h) -> Alcotest.(check string) name (Reference.to_string h) (Io.to_string h))
    [ ("unit", unit); ("related", related); ("random", random); ("odd weights", odd) ]

(* ------------------------------------------------------- builder checks *)

(* A configuration of 1-40 distinct pins, on either side of the builder's
   switch from a pairwise to a hashed duplicate check at 32 pins.  Each
   fault (a repeated pin, a pin out of range, a task out of range, a weight
   that is not positive) is injected with probability 1/6, so some
   configurations carry several and the order of the checks shows. *)
let faulty_hyperedge ~n1 ~n2 =
  let open QCheck.Gen in
  let* k = int_range 1 40 in
  let* procs = map (fun l -> Array.of_list (List.filteri (fun i _ -> i < k) l)) (shuffle_l (List.init n2 Fun.id)) in
  let* task = int_bound (n1 - 1) and* weight = oneofl [ 1.0; 2.0; 7.0; 0.5 ] in
  let fault bad = frequency [ (5, return None); (1, map Option.some bad) ] in
  let* repeat = fault (pair (int_bound (k - 1)) (int_bound (k - 1)))
  and* bad_pin = fault (pair (int_bound (k - 1)) (oneofl [ -1; n2; n2 + 5 ]))
  and* bad_task = fault (oneofl [ -1; n1 ])
  and* bad_weight = fault (oneofl [ 0.0; -1.0; Float.nan ]) in
  Option.iter (fun (i, j) -> if i <> j then procs.(max i j) <- procs.(min i j)) repeat;
  Option.iter (fun (i, u) -> procs.(i) <- u) bad_pin;
  return (Option.value bad_task ~default:task, procs, Option.value bad_weight ~default:weight)

let hg_text ~n1 ~n2 hyperedges =
  let line (task, procs, weight) =
    String.concat " " ("h" :: string_of_int task :: Printf.sprintf "%g" weight :: Array.to_list (Array.map string_of_int procs))
  in
  String.concat "\n" (Printf.sprintf "hypergraph %d %d" n1 n2 :: List.map line hyperedges) ^ "\n"

let via_builder ~n1 ~n2 hyperedges =
  let pins = List.fold_left (fun acc (_, procs, _) -> acc + Array.length procs) 0 hyperedges in
  let b = H.builder ~n1 ~n2 ~hyperedges:(List.length hyperedges) ~pins in
  List.iter
    (fun (task, procs, weight) ->
      Array.iter (H.add_pin b) procs;
      H.end_hyperedge b ~task ~weight)
    hyperedges;
  view (H.build b)

let builder_checks_prop =
  let n1 = 4 and n2 = 48 in
  QCheck.Test.make ~name:"builder = reference create on 1-40-pin configurations" ~count:1000
    (QCheck.make ~print:(hg_text ~n1 ~n2) QCheck.Gen.(list_size (int_range 1 5) (faulty_hyperedge ~n1 ~n2)))
    (fun hyperedges ->
      let got = outcome (via_builder ~n1 ~n2) hyperedges
      and want = outcome (fun hyperedges -> Reference.create ~n1 ~n2 ~hyperedges) hyperedges in
      (same_outcome got want
      || QCheck.Test.fail_reportf "builder:   %s\nreference: %s" (show got) (show want))
      && agrees_with_reference (hg_text ~n1 ~n2 hyperedges))

(* ------------------------------------------------------ golden digests *)

(* MD5 of the parsed CSR arrays, weights by their bits. *)
let csr_digest h =
  let buf = Buffer.create (1 lsl 16) in
  let int x = Buffer.add_int64_le buf (Int64.of_int x) in
  let ints a =
    int (Array.length a);
    Array.iter int a
  in
  int h.H.n1;
  int h.H.n2;
  ints h.H.task_off;
  ints h.H.h_off;
  ints h.H.h_adj;
  int (Array.length h.H.w);
  Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) h.H.w;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Two texts of over 10k lines, written canonically, then respelled so that
   every line (CRLF), the comment lines, or every other line (a doubled
   space) take the general scanner.  The digests are the general scanner's
   reading of all four spellings; the canonical-line loop must give the
   same graph. *)
let test_golden_digests () =
  let singleproc =
    let rng = Randkit.Prng.create ~seed:24 in
    Io.to_string (H.of_bipartite (Bipartite.Fewg_manyg.generate rng ~n1:5120 ~n2:256 ~g:32 ~d:2))
  and multiproc =
    let rng = Randkit.Prng.create ~seed:24 in
    Io.to_string
      (Hyper.Generate.generate rng ~family:Hyper.Generate.Hilo ~n:2560 ~p:256 ~dv:4 ~dh:5 ~g:32
         ~weights:Hyper.Weights.Related)
  in
  let lines s = String.split_on_char '\n' s in
  let commented s =
    String.concat "\n" (List.concat_map (fun l -> [ "# " ^ string_of_int (String.length l); l ]) (lines s))
  and doubled s =
    String.concat "\n"
      (List.mapi (fun i l -> if i mod 2 = 1 then String.concat "  " (String.split_on_char ' ' l) else l) (lines s))
  in
  List.iter
    (fun (name, text, digest) ->
      check (name ^ ": over 10k lines") true (List.length (lines text) > 10_000);
      List.iter
        (fun (spelling, text) -> Alcotest.(check string) (name ^ ", " ^ spelling) digest (csr_digest (Io.of_string text)))
        [ ("canonical", text); ("CRLF", crlf text); ("comments", commented text); ("double spaces", doubled text) ])
    [
      ("SINGLEPROC", singleproc, "4b780aeb12cbd015ac1234de65c54372");
      ("MULTIPROC", multiproc, "590c26cbcc8a7abaf323ffc8f33ada35");
    ]

(* --------------------------------------------------- the C line loop *)

(* Canonical lines go to one C loop that refuses any line the builder would
   not take in place; the general scanner reads that line and the loop
   resumes.  Each case below spells one hyperedge line so that exactly one
   check refuses it, at the first, a middle and the last hyperedge line of a
   text whose other lines are canonical; the outcome must be the reference
   reader's, graph or message. *)
let refusal_base =
  [| (0, "1", [ "0"; "1" ]); (1, "2", [ "2" ]); (1, "3", [ "3"; "4"; "5" ]); (2, "1", [ "6" ]); (3, "4", [ "7"; "8" ]) |]

let refusal_cases =
  let line task weight pins = String.concat " " ("h" :: task :: weight :: pins) in
  let pad19 d = String.make (19 - String.length d) '0' ^ d in
  [
    ("task = n1", fun _ w ps -> line "4" w ps);
    ("processor = n2", fun t w ps -> line t w (ps @ [ "40" ]));
    ("weight 0", fun t _ ps -> line t "0" ps);
    ("16-digit weight", fun t _ ps -> line t "1234567890123456" ps);
    (* 2^64 + k: a loop without the digit limit would wrap it to k *)
    ("20-digit weight", fun t _ ps -> line t "18446744073709551621" ps);
    ("19-digit task", fun t w ps -> line (pad19 t) w ps);
    ("20-digit task", fun _ w ps -> line "18446744073709551617" w ps);
    ("19-digit processor", fun t w ps -> line t w (pad19 (List.hd ps) :: List.tl ps));
    ("20-digit processor", fun t w ps -> line t w (ps @ [ "18446744073709551625" ]));
    ("duplicate pin", fun t w ps -> line t w (ps @ [ List.hd ps ]));
    ("33 pins", fun t w _ -> line t w (List.init 33 string_of_int));
    ("33 pins, one repeated", fun t w _ -> line t w (List.init 33 (fun i -> string_of_int (min i 31))));
    ("no pin", fun t w _ -> line t w []);
    ("task 0, below the previous", fun _ w ps -> line "0" w ps);
    ("task n1 - 1, above the next", fun _ w ps -> line "3" w ps);
    ("CR before the newline", fun t w ps -> line t w ps ^ "\r");
    ("a tab for a space", fun t w ps -> "h " ^ t ^ "\t" ^ String.concat " " (w :: ps));
    ("a trailing tab", fun t w ps -> line t w ps ^ "\t");
    ("a doubled space", fun t w ps -> "h " ^ t ^ "  " ^ String.concat " " (w :: ps));
    ("a leading blank", fun t w ps -> " " ^ line t w ps);
  ]

let test_refusal_points () =
  let n = Array.length refusal_base in
  let text ~edit ~at ~upto ~blanks =
    let lines =
      List.init upto (fun i ->
          let t, w, ps = refusal_base.(i) in
          let t = string_of_int t in
          let l = if i = at then edit t w ps else String.concat " " ("h" :: t :: w :: ps) in
          if blanks && i mod 2 = 1 then " " ^ l else l)
    in
    String.concat "\n" ("hypergraph 4 40" :: lines)
  in
  List.iter
    (fun (name, edit) ->
      List.iter
        (fun (where, at) ->
          List.iter
            (fun (layout, text) ->
              if not (agrees_with_reference text) then Alcotest.failf "%s, %s line, %s" name where layout)
            [
              ("final newline", text ~edit ~at ~upto:n ~blanks:false ^ "\n");
              ("no final newline", text ~edit ~at ~upto:(at + 1) ~blanks:false);
              ("leading blanks on every other line", text ~edit ~at ~upto:n ~blanks:true ^ "\n");
            ])
        [ ("first", 0); ("middle", n / 2); ("last", n - 1) ])
    refusal_cases

(* The C loop writes straight into the builder's arrays, so a canonical
   text allocates the four CSR arrays and a few words per parse, in every
   build profile.  A full collection first, so that no major slice falls
   inside the parse: a slice starts with a minor collection, which would
   promote the caller's live words and count them as major words. *)
let test_parse_allocation () =
  let text =
    let rng = Randkit.Prng.create ~seed:24 in
    Io.to_string (H.of_bipartite (Bipartite.Fewg_manyg.generate rng ~n1:5120 ~n2:256 ~g:32 ~d:2))
  in
  let lines = float (List.length (String.split_on_char '\n' text)) in
  check "over 10k lines" true (lines > 10_000.);
  Gc.full_major ();
  let minor, _, major = Gc.counters () in
  let h = Io.of_string text in
  let minor', _, major' = Gc.counters () in
  let minor = minor' -. minor and major = major' -. major in
  let csr =
    List.fold_left ( + ) 0
      (List.map Obj.reachable_words
         [ Obj.repr h.H.task_off; Obj.repr h.H.h_off; Obj.repr h.H.h_adj; Obj.repr h.H.w ])
  in
  check (Printf.sprintf "%.4f minor words per line" (minor /. lines)) true (minor /. lines < 0.01);
  Alcotest.(check int) "major words = the four CSR arrays" csr (int_of_float major)

let suite =
  [
    QCheck_alcotest.to_alcotest parser_total_prop;
    QCheck_alcotest.to_alcotest parser_structured_fuzz_prop;
    QCheck_alcotest.to_alcotest parser_hostile_bytes_prop;
    QCheck_alcotest.to_alcotest parser_truncation_prop;
    QCheck_alcotest.to_alcotest parser_mutation_prop;
    Alcotest.test_case "hostile header sizes" `Quick test_hostile_header_sizes;
    Alcotest.test_case "string roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "semantic errors propagate" `Quick test_semantic_errors_propagate;
    Alcotest.test_case "generated instance roundtrip" `Quick test_generated_roundtrip;
    QCheck_alcotest.to_alcotest oracle_token_soup_prop;
    QCheck_alcotest.to_alcotest oracle_mutation_prop;
    QCheck_alcotest.to_alcotest oracle_respelled_prop;
    QCheck_alcotest.to_alcotest oracle_bytes_prop;
    Alcotest.test_case "scanner = reference on generated and CRLF files" `Quick test_oracle_generated;
    Alcotest.test_case "ungrouped input keeps per-task order" `Quick test_ungrouped_order;
    Alcotest.test_case "n2 = 1e8 header: 40 pins under 1 MB" `Quick test_hostile_n2_allocation;
    Alcotest.test_case "to_string bytes = sprintf reference" `Quick test_to_string_bytes;
    QCheck_alcotest.to_alcotest builder_checks_prop;
    Alcotest.test_case "golden digests of 10k-line parses, four spellings" `Quick test_golden_digests;
    Alcotest.test_case "C line loop = general scanner at every refusal point" `Quick test_refusal_points;
    Alcotest.test_case "a canonical parse allocates only the CSR arrays" `Quick test_parse_allocation;
  ]
