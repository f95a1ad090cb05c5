(* Streaming subsystem tests: the binary edge-stream format (round-trip,
   version tag, flags, corruption/truncation reports), generator byte-
   identity between the streamed and in-core paths, the Konrad–Rosén
   solvers (feasibility, proven factors vs the raced exact optimum on ~100
   random instances, memory bounds), the ingest tier decision, and the
   daemon's chunked stream_begin/stream_chunk/stream_end ops over the
   in-process loopback. *)

module Sio = Hyper.Stream_io
module Kr = Stream.Kr
module Ingest = Stream.Ingest
module H = Hyper.Graph
module Prng = Randkit.Prng
module J = Obs.Json

let check = Alcotest.(check bool)

let with_temp f =
  let path = Filename.temp_file "test-stream" ".sms" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let equal_hypergraphs a b =
  a.H.n1 = b.H.n1 && a.H.n2 = b.H.n2 && a.H.task_off = b.H.task_off && a.H.h_off = b.H.h_off
  && a.H.h_adj = b.H.h_adj && a.H.w = b.H.w

let sample () =
  H.create ~n1:3 ~n2:4
    ~hyperedges:
      [
        (0, [| 0 |], 2.5);
        (0, [| 1; 2 |], 1.0);
        (1, [| 3 |], 4.0);
        (2, [| 0; 1; 2; 3 |], 0.5);
      ]

(* --- format ------------------------------------------------------------- *)

let test_roundtrip () =
  with_temp (fun path ->
      let h = sample () in
      Sio.save path h;
      check "graph round-trips through the stream file" true (equal_hypergraphs h (Sio.load path));
      let r = Sio.open_reader path in
      Fun.protect
        ~finally:(fun () -> Sio.close_reader r)
        (fun () ->
          let hdr = Sio.header r in
          Alcotest.(check int) "version tag" Sio.version hdr.Sio.h_version;
          Alcotest.(check int) "records sealed" 4 hdr.Sio.h_records;
          Alcotest.(check int) "pins sealed" 8 hdr.Sio.h_pins;
          check "sealed" true (Sio.sealed hdr);
          check "not singleton (multi-proc configs)" false (Sio.singleton hdr);
          check "not unit weight" false (Sio.unit_weight hdr);
          check "task grouped (create order)" true (Sio.task_grouped hdr)))

(* Satellite 1: the text `.hg` format is untouched by the new tier — a graph
   sent through the binary stream renders byte-identically. *)
let test_hg_text_compat () =
  with_temp (fun path ->
      let h = sample () in
      let before = Hyper.Io.to_string h in
      Sio.save path h;
      let after = Hyper.Io.to_string (Sio.load path) in
      Alcotest.(check string) ".hg text byte-identical after stream round-trip" before after)

let test_flags_track_content () =
  with_temp (fun path ->
      let w = Sio.create_writer ~path ~n1:4 ~n2:3 () in
      Sio.add w ~task:2 ~procs:[| 0 |] ~weight:1.0;
      Sio.add w ~task:0 ~procs:[| 1 |] ~weight:1.0;
      (* out of order *)
      Sio.close_writer w;
      let r = Sio.open_reader path in
      let hdr = Sio.header r in
      Sio.close_reader r;
      check "singleton" true (Sio.singleton hdr);
      check "unit weight" true (Sio.unit_weight hdr);
      check "not task-grouped after descending ids" false (Sio.task_grouped hdr))

let test_validate_ok () =
  with_temp (fun path ->
      let w = Sio.create_writer ~chunk_records:8 ~path ~n1:50 ~n2:5 () in
      for v = 0 to 49 do
        Sio.add w ~task:v ~procs:[| v mod 5 |] ~weight:1.0
      done;
      Sio.close_writer w;
      let rep = Sio.validate path in
      check "no error" true (rep.Sio.r_error = None);
      check "sealed" true rep.Sio.r_sealed;
      check "counts match" true rep.Sio.r_counts_match;
      Alcotest.(check int) "records" 50 rep.Sio.r_records;
      check "multiple chunks" true (rep.Sio.r_chunks > 1))

let test_validate_truncated () =
  with_temp (fun path ->
      let w = Sio.create_writer ~chunk_records:8 ~path ~n1:20 ~n2:4 () in
      for v = 0 to 19 do
        Sio.add w ~task:v ~procs:[| v mod 4 |] ~weight:1.0
      done;
      Sio.close_writer w;
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let rep = Sio.validate path in
      check "truncation reported" true (rep.Sio.r_error <> None);
      check "counts mismatch" true (not rep.Sio.r_counts_match);
      check "valid prefix counted" true (rep.Sio.r_records > 0 && rep.Sio.r_records < 20))

let test_validate_corrupt () =
  with_temp (fun path ->
      let w = Sio.create_writer ~path ~n1:10 ~n2:4 () in
      for v = 0 to 9 do
        Sio.add w ~task:v ~procs:[| v mod 4 |] ~weight:1.0
      done;
      Sio.close_writer w;
      (* Flip one payload byte of the first chunk (header 36B + 8B frame head). *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd (Sio.header_bytes + 10) Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      ignore (Unix.lseek fd (Sio.header_bytes + 10) Unix.SEEK_SET);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let rep = Sio.validate path in
      check "corruption reported" true (rep.Sio.r_error <> None);
      (* The strict reader must refuse the same bytes. *)
      let r = Sio.open_reader path in
      (match Sio.iter r (fun ~task:_ ~procs:_ ~weight:_ -> ()) with
      | () -> Alcotest.fail "iter accepted a corrupt chunk"
      | exception Failure _ -> ());
      Sio.close_reader r)

let test_unsealed_detected () =
  with_temp (fun path ->
      let w = Sio.create_writer ~path ~n1:4 ~n2:2 () in
      for v = 0 to 3 do
        Sio.add w ~task:v ~procs:[| v mod 2 |] ~weight:1.0
      done;
      Sio.close_writer w;
      (* Un-seal by restoring the all-ones count fields (records at byte 20,
         pins at 28 — the layout the module documents). *)
      Alcotest.(check int) "documented header size" 36 Sio.header_bytes;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 20 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 16 '\xff') 0 16);
      Unix.close fd;
      let rep = Sio.validate path in
      check "unsealed detected" true (not rep.Sio.r_sealed);
      (match Ingest.solve path with
      | _ -> Alcotest.fail "ingest accepted an unsealed stream"
      | exception Failure msg -> check "ingest names the cause" true (contains ~needle:"unsealed" msg)))

(* --- CRC-32 and the record decoder ---------------------------------------- *)

(* The bytewise boxed-int32 CRC both the stream format and the journal used
   before the table-sliced ones, kept as the reference. *)
let reference_crc32 b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

let test_crc32 () =
  Alcotest.(check int) "check vector" 0xCBF43926 (Hyper.Crc32.string "123456789");
  Alcotest.(check int) "check vector at an offset" 0xCBF43926
    (Hyper.Crc32.bytes (Bytes.of_string "xx123456789y") ~pos:2 ~len:9);
  Alcotest.(check int32) "journal entry point" 0xCBF43926l (Server.Journal.crc32 "123456789");
  let rng = Prng.create ~seed:5 in
  let random n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256)) in
  (* Every split of a range into 16-byte blocks and a bytewise tail, at
     every alignment of its start. *)
  let buf = random 96 in
  for pos = 0 to 15 do
    for len = 0 to 80 do
      Alcotest.(check int)
        (Printf.sprintf "pos %d len %d" pos len)
        (reference_crc32 buf ~pos ~len) (Hyper.Crc32.bytes buf ~pos ~len)
    done
  done;
  for _ = 1 to 50 do
    let b = random (1 + Prng.int rng 5000) in
    let pos = Prng.int rng (Bytes.length b) in
    let len = Prng.int rng (Bytes.length b - pos + 1) in
    Alcotest.(check int) "random buffer" (reference_crc32 b ~pos ~len) (Hyper.Crc32.bytes b ~pos ~len)
  done;
  Alcotest.check_raises "range outside the buffer" (Invalid_argument "Crc32.bytes") (fun () ->
      ignore (Hyper.Crc32.bytes (Bytes.create 4) ~pos:2 ~len:3))

(* [iter] hands each record a fresh [procs] array that the callback owns:
   keeping every one across the whole pass must give back what was
   written. *)
let test_iter_procs_owned () =
  with_temp (fun path ->
      let rng = Prng.create ~seed:3 in
      let written =
        List.init 3000 (fun i ->
            let k = 1 + Prng.int rng 5 in
            (i mod 50, Array.init k (fun j -> (j * 10) + Prng.int rng 10)))
      in
      let w = Sio.create_writer ~chunk_records:64 ~path ~n1:50 ~n2:50 () in
      List.iter (fun (task, procs) -> Sio.add w ~task ~procs ~weight:1.0) written;
      Sio.close_writer w;
      let r = Sio.open_reader path in
      let kept = ref [] in
      Fun.protect
        ~finally:(fun () -> Sio.close_reader r)
        (fun () -> Sio.iter r (fun ~task ~procs ~weight:_ -> kept := (task, procs) :: !kept));
      check "every kept procs array intact" true (List.rev !kept = written))

(* The bytes [save] writes are pinned: a seeded graph of about 9,000
   hyperedges (k = 1 to 4 pins, non-unit weights) fills one 8,192-record
   chunk and part of a second, so full and partial chunk CRCs and the
   sealed header are covered.  The digest was taken with the OCaml CRC,
   so it shows the C kernel frames the same bytes; reading the file back
   must give the graph again. *)
let test_save_golden () =
  with_temp (fun path ->
      let rng = Prng.create ~seed:22 in
      let n1 = 3000 and n2 = 64 in
      let hyperedges =
        List.concat
          (List.init n1 (fun task ->
               List.init (1 + Prng.int rng 5) (fun _ ->
                   let k = 1 + Prng.int rng 4 in
                   let first = Prng.int rng (n2 - k + 1) in
                   (task, Array.init k (fun j -> first + j), 0.5 +. float_of_int (Prng.int rng 8)))))
      in
      let h = H.create ~n1 ~n2 ~hyperedges in
      Sio.save path h;
      let rep = Sio.validate path in
      check "more than one chunk, the last one partial" true
        (rep.Sio.r_chunks >= 2 && rep.Sio.r_records mod 8192 <> 0);
      Alcotest.(check string) "file digest" "8404c958db9909e1826b413669031d5b"
        (Digest.to_hex (Digest.file path));
      check "file reads back as the graph" true (equal_hypergraphs h (Sio.load path)))

(* --- generator byte-identity -------------------------------------------- *)

(* Satellite 2: with Unit weights, streaming a generator emits exactly the
   instance the in-core builder would have built — record for record. *)
let test_gen_stream_identity () =
  List.iter
    (fun family ->
      let mk_rng () = Prng.create ~seed:42 in
      let incore =
        Hyper.Generate.generate (mk_rng ()) ~family ~n:60 ~p:12 ~dv:3 ~dh:4 ~g:3
          ~weights:Hyper.Weights.Unit
      in
      let edges = ref [] in
      let n =
        Hyper.Generate.stream (mk_rng ()) ~family ~n:60 ~p:12 ~dv:3 ~dh:4 ~g:3
          ~weights:Hyper.Weights.Unit ~emit:(fun ~task ~procs ~weight ->
            edges := (task, Array.copy procs, weight) :: !edges)
      in
      let streamed = H.create ~n1:60 ~n2:12 ~hyperedges:(List.rev !edges) in
      check
        (Hyper.Generate.family_name family ^ " streamed instance identical")
        true
        (equal_hypergraphs incore streamed);
      Alcotest.(check int) "edge count returned" (H.num_hyperedges incore) n)
    [ Hyper.Generate.Fewg_manyg; Hyper.Generate.Hilo ]

let test_gen_sp_stream_identity () =
  let collect family =
    let rng = Prng.create ~seed:11 in
    let pairs = ref [] in
    ignore
      (Hyper.Generate.stream_sp rng ~family ~n:40 ~p:8 ~g:2 ~d:3 ~emit:(fun ~task ~proc ->
           pairs := (task, proc) :: !pairs)
        : int);
    List.rev !pairs
  in
  let rows_fewg = Bipartite.Fewg_manyg.adjacency (Prng.create ~seed:11) ~n1:40 ~n2:8 ~g:2 ~d:3 in
  let rows_hilo = Bipartite.Hilo.adjacency ~n1:40 ~n2:8 ~g:2 ~d:3 in
  let expected rows =
    List.concat (List.mapi (fun v row -> List.map (fun p -> (v, p)) (Array.to_list row))
                   (Array.to_list rows))
  in
  check "fewg-manyg streamed = adjacency" true (collect Hyper.Generate.Fewg_manyg = expected rows_fewg);
  check "hilo streamed = adjacency" true (collect Hyper.Generate.Hilo = expected rows_hilo)

(* --- solvers: feasibility, proven factors, differential vs exact --------- *)

(* One random SINGLEPROC-UNIT case: every task gets 1..3 distinct
   processors, so the instance is always feasible. *)
let random_sp_case rng =
  let n = 2 + Prng.int rng 40 and p = 1 + Prng.int rng 10 in
  let adj =
    Array.init n (fun _ ->
        let k = 1 + Prng.int rng (min 3 p) in
        Prng.sample_without_replacement rng ~k ~n:p)
  in
  (n, p, adj)

let write_sp_case path (n, p, adj) =
  let w = Sio.create_writer ~chunk_records:16 ~path ~n1:n ~n2:p () in
  Array.iteri
    (fun v procs -> Array.iter (fun q -> Sio.add w ~task:v ~procs:[| q |] ~weight:1.0) procs)
    adj;
  Sio.close_writer w

let check_sp_solution ~name ~n ~p ~adj ~opt (sol : Kr.solution) =
  let a =
    match sol.Kr.assignment with
    | Some a -> a
    | None -> Alcotest.failf "%s: no assignment" name
  in
  Alcotest.(check int) (name ^ ": assignment length") n (Array.length a);
  let loads = Array.make p 0 in
  Array.iteri
    (fun v q ->
      if not (Array.exists (( = ) q) adj.(v)) then
        Alcotest.failf "%s: task %d assigned to %d, not one of its processors" name v q;
      loads.(q) <- loads.(q) + 1)
    a;
  let max_load = Array.fold_left max 0 loads in
  Alcotest.(check (float 1e-9)) (name ^ ": makespan = max recomputed load")
    (float_of_int max_load) sol.Kr.makespan;
  if sol.Kr.makespan +. 1e-9 < opt then
    Alcotest.failf "%s: makespan %g below the optimum %g" name sol.Kr.makespan opt;
  if sol.Kr.lower_bound > opt +. 1e-9 then
    Alcotest.failf "%s: streamed LB %g above the optimum %g" name sol.Kr.lower_bound opt;
  if sol.Kr.makespan > (sol.Kr.factor *. opt) +. 1e-9 then
    Alcotest.failf "%s: makespan %g beyond proven factor %g of optimum %g" name sol.Kr.makespan
      sol.Kr.factor opt;
  check (name ^ ": at least one pass") true (sol.Kr.passes >= 1)

(* Satellite 3: the differential suite — 100 random instances, streamed
   makespans checked against the exact deadline search on the same graph. *)
let test_differential_vs_exact () =
  let rng = Prng.create ~seed:2024 in
  for case = 1 to 100 do
    let n, p, adj = random_sp_case rng in
    let edges =
      List.concat
        (List.mapi
           (fun v procs -> List.map (fun q -> (v, q)) (Array.to_list procs))
           (Array.to_list adj))
    in
    let g = Bipartite.Graph.unit_weights ~n1:n ~n2:p ~edges in
    let opt = float_of_int (Semimatch.Exact_unit.solve g).Semimatch.Exact_unit.makespan in
    with_temp (fun path ->
        write_sp_case path (n, p, adj);
        let solve f =
          let r = Sio.open_reader path in
          Fun.protect ~finally:(fun () -> Sio.close_reader r) (fun () -> f r)
        in
        let tag s = Printf.sprintf "case %d (n=%d p=%d) %s" case n p s in
        check_sp_solution ~name:(tag "one-pass") ~n ~p ~adj ~opt (solve Kr.one_pass);
        check_sp_solution ~name:(tag "few-pass") ~n ~p ~adj ~opt (solve Kr.few_pass);
        (* The ingest in-core tier must reproduce the exact optimum. *)
        let o = Ingest.solve ~threshold_words:max_int path in
        Alcotest.(check (float 1e-9)) (tag "ingest exact = optimum") opt o.Ingest.makespan)
  done

(* General MULTIPROC streams: the online greedy must commit real
   configurations and report the same refined LB the in-core bound gives. *)
let test_online_greedy_general () =
  let rng = Prng.create ~seed:7 in
  for case = 1 to 30 do
    let n1 = 2 + Prng.int rng 12 and n2 = 2 + Prng.int rng 6 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int rng 3 in
      for _ = 1 to d do
        let k = 1 + Prng.int rng (min 3 n2) in
        let procs = Prng.sample_without_replacement rng ~k ~n:n2 in
        let w = [| 1.0; 0.5; 2.0 |].(Prng.int rng 3) in
        edges := (v, procs, w) :: !edges
      done
    done;
    let hyperedges = List.rev !edges in
    let h = H.create ~n1 ~n2 ~hyperedges in
    with_temp (fun path ->
        let w = Sio.create_writer ~path ~n1 ~n2 () in
        List.iter (fun (v, procs, wt) -> Sio.add w ~task:v ~procs ~weight:wt) hyperedges;
        Sio.close_writer w;
        let chosen = Hashtbl.create 16 in
        let r = Sio.open_reader path in
        let sol =
          Fun.protect
            ~finally:(fun () -> Sio.close_reader r)
            (fun () ->
              Kr.online_greedy
                ~on_choice:(fun ~task ~procs ~weight ->
                  Hashtbl.replace chosen task (Array.copy procs, weight))
                r)
        in
        let tag s = Printf.sprintf "online case %d %s" case s in
        Alcotest.(check int) (tag "every task decided") n1 (Hashtbl.length chosen);
        let loads = Array.make n2 0.0 in
        Hashtbl.iter
          (fun task (procs, weight) ->
            if
              not
                (List.exists
                   (fun (v, ps, wt) -> v = task && ps = procs && wt = weight)
                   hyperedges)
            then Alcotest.failf "%s: task %d got a configuration not in the instance" (tag "") task;
            Array.iter (fun q -> loads.(q) <- loads.(q) +. weight) procs)
          chosen;
        let max_load = Array.fold_left max 0.0 loads in
        Alcotest.(check (float 1e-9)) (tag "makespan = recomputed bottleneck") max_load
          sol.Kr.makespan;
        Alcotest.(check (float 1e-9)) (tag "streamed LB = in-core refined LB")
          (Semimatch.Lower_bound.multiproc_refined h)
          sol.Kr.lower_bound;
        check (tag "makespan >= LB") true (sol.Kr.makespan +. 1e-9 >= sol.Kr.lower_bound))
  done

(* --- ingest tiers and memory bounds ------------------------------------- *)

let test_ingest_tiers () =
  with_temp (fun path ->
      write_sp_case path
        (20, 4, Array.init 20 (fun v -> [| v mod 4; (v + 1) mod 4 |]));
      let incore = Ingest.solve path in
      check "small instance lands in core" true (incore.Ingest.tier = Ingest.In_core_exact);
      Alcotest.(check (float 1e-9)) "exact tier factor" 1.0 incore.Ingest.factor;
      check "graph materialized" true (incore.Ingest.graph <> None);
      let few = Ingest.solve ~threshold_words:0 path in
      check "threshold 0 forces the stream"
        true
        (few.Ingest.tier = Ingest.Stream_kr Kr.Few_pass_log);
      check "no graph in the streamed tier" true (few.Ingest.graph = None);
      let one = Ingest.solve ~threshold_words:0 ~stream_solver:Ingest.One_pass path in
      check "solver override" true (one.Ingest.tier = Ingest.Stream_kr Kr.One_pass_sqrt);
      check "streamed makespans honour factors" true
        (few.Ingest.makespan <= (few.Ingest.factor *. incore.Ingest.makespan) +. 1e-9
        && one.Ingest.makespan <= (one.Ingest.factor *. incore.Ingest.makespan) +. 1e-9));
  (* A general stream below the threshold must fall to the online greedy. *)
  with_temp (fun path ->
      let w = Sio.create_writer ~path ~n1:4 ~n2:3 () in
      for v = 0 to 3 do
        Sio.add w ~task:v ~procs:[| v mod 3; (v + 1) mod 3 |] ~weight:2.0
      done;
      Sio.close_writer w;
      let o = Ingest.solve ~threshold_words:0 path in
      check "general stream gets the online greedy" true
        (o.Ingest.tier = Ingest.Stream_kr Kr.Online_greedy))

let test_memory_bound () =
  with_temp (fun path ->
      let n = 20_000 and p = 100 in
      let rng = Prng.create ~seed:5 in
      let w = Sio.create_writer ~path ~n1:n ~n2:p () in
      for v = 0 to n - 1 do
        Array.iter
          (fun q -> Sio.add w ~task:v ~procs:[| q |] ~weight:1.0)
          (Prng.sample_without_replacement rng ~k:4 ~n:p)
      done;
      Sio.close_writer w;
      let r = Sio.open_reader path in
      let csr =
        match Sio.csr_estimate_words (Sio.header r) with
        | Some wds -> wds
        | None -> Alcotest.fail "sealed stream without a CSR estimate"
      in
      let few = Fun.protect ~finally:(fun () -> Sio.close_reader r) (fun () -> Kr.few_pass r) in
      check "solver state well below the avoided CSR" true (few.Kr.state_words * 4 < csr);
      check "peak gauge covers the run" true (Kr.peak_state_words () >= few.Kr.state_words))

(* --- daemon ops over the loopback ---------------------------------------- *)

let line fields = J.to_string (J.Obj fields)

let field reply name =
  match J.member name (J.of_string reply) with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name reply

let num reply name =
  match field reply name with J.Num f -> f | _ -> Alcotest.failf "field %S not numeric" name

let is_ok reply = match field reply "ok" with J.Bool b -> b | _ -> false

let error_code reply =
  match J.member "error" (J.of_string reply) with Some (J.Str s) -> s | _ -> ""

let chunk_line session edges =
  line
    [
      ("op", J.Str "stream_chunk");
      ("session", J.Str session);
      ( "edges",
        J.List
          (List.map
             (fun (task, procs, weight) ->
               J.Obj
                 [
                   ("task", J.Num (float_of_int task));
                   ("weight", J.Num weight);
                   ("procs", J.List (List.map (fun q -> J.Num (float_of_int q)) procs));
                 ])
             edges) );
    ]

let test_daemon_stream_incore () =
  let lb = Server.Loopback.create (Server.Engine.create ()) in
  let req l =
    let reply = Server.Loopback.request lb l in
    if not (is_ok reply) then Alcotest.failf "expected ok, got %s" reply;
    reply
  in
  ignore
    (req (line [ ("op", J.Str "stream_begin"); ("session", J.Str "s"); ("n1", J.Num 4.); ("n2", J.Num 2.) ]));
  ignore (req (chunk_line "s" [ (0, [ 0 ], 1.0); (1, [ 1 ], 1.0) ]));
  let r2 = req (chunk_line "s" [ (2, [ 0 ], 1.0); (3, [ 1 ], 1.0); (3, [ 0 ], 1.0) ]) in
  Alcotest.(check (float 0.0)) "records accumulate across chunks" 5.0 (num r2 "records");
  let fin = req (line [ ("op", J.Str "stream_end"); ("session", J.Str "s") ]) in
  check "small upload falls back in core" true (field fin "tier" = J.Str "incore-exact");
  check "session resident" true (field fin "resident" = J.Bool true);
  Alcotest.(check (float 1e-9)) "exact makespan" 2.0 (num fin "makespan");
  (* The resident session answers normal session ops now. *)
  let solved = req (line [ ("op", J.Str "solve"); ("session", J.Str "s") ]) in
  check "resident session solves" true (num solved "makespan" >= 1.0)

let test_daemon_stream_streamed () =
  let lb = Server.Loopback.create (Server.Engine.create ()) in
  let req l = Server.Loopback.request lb l in
  ignore
    (req (line [ ("op", J.Str "stream_begin"); ("session", J.Str "t"); ("n1", J.Num 6.); ("n2", J.Num 2.) ]));
  ignore
    (req (chunk_line "t" (List.init 6 (fun v -> (v, [ v mod 2 ], 1.0)))));
  let fin =
    req
      (line
         [
           ("op", J.Str "stream_end");
           ("session", J.Str "t");
           ("threshold_mb", J.Num 0.);
           ("solver", J.Str "few-pass");
         ])
  in
  check "streamed tier" true (field fin "tier" = J.Str "stream-few-pass-log");
  check "no resident session" true (field fin "resident" = J.Bool false);
  check "factor recorded" true (num fin "factor" > 1.0);
  check "lower bound recorded" true (num fin "lower_bound" >= 3.0);
  let sessions = req (line [ ("op", J.Str "sessions") ]) in
  check "streamed solve left no session" true (field sessions "sessions" = J.List [])

let test_daemon_stream_errors () =
  let lb = Server.Loopback.create (Server.Engine.create ()) in
  let req l = Server.Loopback.request lb l in
  let expect code reply =
    if is_ok reply then Alcotest.failf "expected %s error, got %s" code reply;
    Alcotest.(check string) ("error code " ^ code) code (error_code reply)
  in
  expect "bad_request" (req (chunk_line "nope" [ (0, [ 0 ], 1.0) ]));
  expect "bad_request" (req (line [ ("op", J.Str "stream_end"); ("session", J.Str "nope") ]));
  expect "bad_request"
    (req
       (line [ ("op", J.Str "stream_begin"); ("session", J.Str "x"); ("n1", J.Num (-1.)); ("n2", J.Num 2.) ]));
  ignore
    (req (line [ ("op", J.Str "stream_begin"); ("session", J.Str "x"); ("n1", J.Num 2.); ("n2", J.Num 2.) ]));
  (* Out-of-range edge poisons and drops the spool... *)
  expect "bad_request" (req (chunk_line "x" [ (7, [ 0 ], 1.0) ]));
  expect "bad_request" (req (chunk_line "x" [ (0, [ 0 ], 1.0) ]));
  (* ...and an unknown solver is rejected at stream_end. *)
  ignore
    (req (line [ ("op", J.Str "stream_begin"); ("session", J.Str "y"); ("n1", J.Num 2.); ("n2", J.Num 2.) ]));
  ignore (req (chunk_line "y" [ (0, [ 0 ], 1.0); (1, [ 1 ], 1.0) ]));
  expect "bad_request"
    (req
       (line
          [ ("op", J.Str "stream_end"); ("session", J.Str "y"); ("solver", J.Str "quantum") ]))

(* --- CLI: gen --stream-out, solve --stream, doctor (satellite 6) --------- *)

let cli =
  let exe_dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat exe_dir "../bin/semimatch_cli.exe";
      "../bin/semimatch_cli.exe";
      "_build/default/bin/semimatch_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let run_capture args =
  let command = Filename.quote_command cli args ^ " 2>&1" in
  let ic = Unix.open_process_in command in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status, output)

let expect_exit want (status, output) =
  (match status with
  | Unix.WEXITED c when c = want -> ()
  | Unix.WEXITED c -> Alcotest.failf "CLI exited %d (wanted %d): %s" c want output
  | _ -> Alcotest.failf "CLI killed: %s" output);
  output

let expect_failure (status, output) =
  (match status with
  | Unix.WEXITED 0 -> Alcotest.failf "CLI unexpectedly succeeded: %s" output
  | Unix.WEXITED _ -> ()
  | _ -> Alcotest.failf "CLI killed: %s" output);
  output

let test_cli_stream_pipeline () =
  with_temp (fun path ->
      let out =
        expect_exit 0
          (run_capture
             [ "gen-sp"; "--tasks"; "60"; "--procs"; "12"; "--groups"; "3"; "--degree"; "3";
               "--seed"; "2"; "--stream-out"; path ])
      in
      check "gen reports the stream" true (contains ~needle:"edge stream" out);
      let doc = expect_exit 0 (run_capture [ "doctor"; path ]) in
      check "doctor validates" true (contains ~needle:"stream OK" doc);
      check "doctor shows flags" true (contains ~needle:"singleton" doc);
      let solved = expect_exit 0 (run_capture [ "solve"; "--stream"; path ]) in
      check "in-core tier" true (contains ~needle:"incore-exact" solved);
      let streamed =
        expect_exit 0
          (run_capture [ "solve"; "--stream"; path; "--stream-threshold-mb"; "0" ])
      in
      check "forced streamed tier" true (contains ~needle:"stream-few-pass-log" streamed);
      check "memory line present" true (contains ~needle:"solver state" streamed);
      (* Truncate and doctor again: exit 1 with a framing diagnosis. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Unix.ftruncate fd (size - 2);
      Unix.close fd;
      let bad = expect_failure (run_capture [ "doctor"; path ]) in
      check "doctor diagnoses the tear" true
        (contains ~needle:"error" (String.lowercase_ascii bad)))

let suite =
  [
    Alcotest.test_case "format round-trip + version tag" `Quick test_roundtrip;
    Alcotest.test_case "text .hg byte-compat (satellite 1)" `Quick test_hg_text_compat;
    Alcotest.test_case "flags track content" `Quick test_flags_track_content;
    Alcotest.test_case "validate: clean file" `Quick test_validate_ok;
    Alcotest.test_case "validate: truncated tail" `Quick test_validate_truncated;
    Alcotest.test_case "validate: corrupt payload" `Quick test_validate_corrupt;
    Alcotest.test_case "unsealed stream detected" `Quick test_unsealed_detected;
    Alcotest.test_case "crc32: slicing-by-16 = bytewise" `Quick test_crc32;
    Alcotest.test_case "iter: callback owns procs" `Quick test_iter_procs_owned;
    Alcotest.test_case "save: golden file digest" `Quick test_save_golden;
    Alcotest.test_case "generator stream = in-core instance" `Quick test_gen_stream_identity;
    Alcotest.test_case "gen-sp stream = bipartite adjacency" `Quick test_gen_sp_stream_identity;
    Alcotest.test_case "differential vs exact (100 instances)" `Quick test_differential_vs_exact;
    Alcotest.test_case "online greedy: general streams" `Quick test_online_greedy_general;
    Alcotest.test_case "ingest tier decision" `Quick test_ingest_tiers;
    Alcotest.test_case "memory bound vs CSR estimate" `Quick test_memory_bound;
    Alcotest.test_case "daemon: chunked upload, in-core fallback" `Quick test_daemon_stream_incore;
    Alcotest.test_case "daemon: forced streamed tier" `Quick test_daemon_stream_streamed;
    Alcotest.test_case "daemon: stream op errors" `Quick test_daemon_stream_errors;
    Alcotest.test_case "cli: gen/doctor/solve --stream" `Quick test_cli_stream_pipeline;
  ]
