(* Open-loop load generator for the scheduler daemon.

   One connection, pipelined: arrivals follow a seeded Poisson process
   (exponential inter-arrival times at [rate] requests/s) and are written
   when due whether or not earlier replies have come back — open-loop, so a
   slow server shows up as latency, not as a politely reduced offered load.
   Requests carry sequence-number ids and replies are matched by id (busy
   rejections are emitted by the engine at admission time and can overtake
   queued replies, so FIFO matching would mis-attribute them).

   Latencies are measured client-side (send-to-reply, monotonic clock) and
   kept as exact per-op sample arrays, so the reported p50/p95/p99 are true
   order statistics, not bucket approximations.  Busy and error replies are
   counted separately and excluded from the latency samples.

   The request mix over a preloaded session: 45% add_task (1–3 random
   configurations), 25% remove_task (a live tid, tracked client-side), 15%
   resolve (small budget), 10% ping, 5% stats. *)

module J = Obs.Json

type opts = {
  duration_s : float;
  rate : float;  (* target arrivals per second *)
  seed : int;
  tasks : int;  (* preloaded instance size *)
  procs : int;
  budget_ms : float;  (* resolve budget *)
  stall_timeout_s : float;  (* no-reply guard *)
  reconnect_attempts : int;  (* 0 = a dropped connection is fatal *)
}

let default_opts =
  {
    duration_s = 2.0;
    rate = 200.0;
    seed = 0;
    tasks = 120;
    procs = 32;
    budget_ms = 10.0;
    stall_timeout_s = 10.0;
    reconnect_attempts = 0;
  }

type op_stats = {
  o_op : string;
  o_count : int;
  o_mean_ms : float;
  o_p50_ms : float;
  o_p95_ms : float;
  o_p99_ms : float;
  o_max_ms : float;
  o_samples_ms : float array;  (* sorted ascending *)
}

type report = {
  r_wall_s : float;
  r_sent : int;
  r_replies : int;
  r_busy : int;
  r_errors : int;
  r_reconnects : int;
  r_throughput_rps : float;
  r_ops : op_stats list;  (* name-sorted *)
}

(* Exact quantile of a sorted sample array: linear interpolation on rank
   q·(n−1), the same convention Metrics.quantile uses on its buckets. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let instance_text opts =
  let rng = Randkit.Prng.create ~seed:(opts.seed + 7919) in
  let h =
    Hyper.Generate.generate rng ~family:Hyper.Generate.Fewg_manyg ~n:opts.tasks ~p:opts.procs
      ~dv:3 ~dh:4
      ~g:(max 4 (opts.procs / 8))
      ~weights:Hyper.Weights.Unit
  in
  Hyper.Io.to_string h

let session = "loadgen"

let request_line ~id fields =
  J.to_string (J.Obj (("id", J.Num (float_of_int id)) :: fields))

let run ?connect fd opts =
  if opts.rate <= 0.0 then invalid_arg "Loadgen.run: rate must be positive";
  if opts.duration_s <= 0.0 then invalid_arg "Loadgen.run: duration must be positive";
  let rng = Randkit.Prng.create ~seed:opts.seed in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !error = None then error := Some m) fmt in
  (* reply bookkeeping: pending keeps the request line so a reconnect can
     resend everything still unanswered *)
  let pending : (int, string * string * int64) Hashtbl.t = Hashtbl.create 256 in
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let sent = ref 0 and replies = ref 0 and busy = ref 0 and errors = ref 0 in
  let reconnects = ref 0 in
  let fdr = ref fd in
  let inbuf = ref "" in
  let record op ms =
    let cell =
      match Hashtbl.find_opt samples op with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace samples op c;
          c
    in
    cell := ms :: !cell
  in
  (* client-side session state *)
  let live = ref (Array.init opts.tasks Fun.id) in
  let n_live = ref opts.tasks in
  let next_tid = ref opts.tasks in
  let next_id = ref 0 in
  let write_raw line =
    let bytes = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length bytes in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write !fdr bytes !off (len - !off)
    done
  in
  (* A dropped connection: with [connect] and a positive attempt budget,
     back off, redial, and resend every still-unanswered request in send
     order — their idempotency ids keep already-applied mutations from
     double-applying on the other side.  Otherwise it stays fatal. *)
  let reconnect_or_fail why =
    match connect with
    | Some dial when opts.reconnect_attempts > 0 ->
        (try Unix.close !fdr with Unix.Unix_error _ -> ());
        inbuf := "";
        let ok = ref false in
        let attempt = ref 0 in
        while (not !ok) && !attempt < opts.reconnect_attempts && !error = None do
          Unix.sleepf (0.05 *. (2.0 ** float_of_int !attempt));
          Stdlib.incr attempt;
          match dial () with
          | fd -> fdr := fd; ok := true
          | exception Unix.Unix_error _ -> ()
        done;
        if not !ok then
          fail "%s; reconnect failed after %d attempts" why opts.reconnect_attempts
        else begin
          Stdlib.incr reconnects;
          let outstanding =
            List.sort compare
              (Hashtbl.fold (fun id (_, line, _) acc -> (id, line) :: acc) pending [])
          in
          try List.iter (fun (_, line) -> write_raw line) outstanding
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            fail "server hung up again while resending after reconnect"
        end
    | _ -> fail "%s" why
  in
  (* Only mutations need idempotency ids, and only when a resend is
     possible at all. *)
  let idem_for op =
    opts.reconnect_attempts > 0 && (op = "load" || op = "add_task" || op = "remove_task")
  in
  let send fields op =
    let id = !next_id in
    Stdlib.incr next_id;
    let fields =
      if idem_for op then fields @ [ ("idem", J.Str (Printf.sprintf "lg%d-%d" opts.seed id)) ]
      else fields
    in
    let line = request_line ~id fields in
    Hashtbl.replace pending id (op, line, Obs.Span.now_ns ());
    Stdlib.incr sent;
    try write_raw line
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      reconnect_or_fail (Printf.sprintf "server hung up while sending request %d" id)
  in
  let process_line line =
    if line <> "" then
      match Protocol.decode_reply line with
      | Error msg -> fail "unparseable reply: %s" msg
      | Ok r -> (
          match Option.bind (J.member "id" r.Protocol.json) J.to_float with
          | None -> fail "reply without a numeric id: %s" line
          | Some f -> (
              let id = int_of_float f in
              match Hashtbl.find_opt pending id with
              | None -> fail "reply for unknown id %d" id
              | Some (op, _, t_send) ->
                  Hashtbl.remove pending id;
                  Stdlib.incr replies;
                  let ms =
                    Int64.to_float (Int64.sub (Obs.Span.now_ns ()) t_send) /. 1e6
                  in
                  if r.Protocol.ok then record op ms
                  else if r.Protocol.code = Some (Protocol.code_name Protocol.Busy) then
                    Stdlib.incr busy
                  else Stdlib.incr errors))
  in
  let chunk = Bytes.create 65536 in
  let drain_input wait =
    match Unix.select [ !fdr ] [] [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.read !fdr chunk 0 (Bytes.length chunk) with
        | 0 -> reconnect_or_fail "server closed the connection"
        | n ->
            inbuf := !inbuf ^ Bytes.sub_string chunk 0 n;
            let parts = String.split_on_char '\n' !inbuf in
            let rec consume = function
              | [] -> inbuf := ""
              | [ last ] -> inbuf := last
              | line :: rest ->
                  process_line line;
                  consume rest
            in
            consume parts
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            reconnect_or_fail "server reset the connection")
  in
  let stalled () =
    let now = Obs.Span.now_ns () in
    let limit = Int64.of_float (opts.stall_timeout_s *. 1e9) in
    Hashtbl.fold
      (fun id (op, _, t_send) acc ->
        match acc with
        | Some _ -> acc
        | None -> if Int64.sub now t_send > limit then Some (id, op) else None)
      pending None
  in
  let await_quiet () =
    (* drain until no replies are outstanding (or a stall/error) *)
    let continue = ref true in
    while !continue do
      if Hashtbl.length pending = 0 || !error <> None then continue := false
      else (
        (match stalled () with
        | Some (id, op) ->
            fail "no reply to request %d (%s) within %gs" id op opts.stall_timeout_s
        | None -> ());
        if !error = None then drain_input 0.05)
    done
  in
  (* preload the session *)
  send
    [ ("op", J.Str "load"); ("session", J.Str session); ("instance", J.Str (instance_text opts)) ]
    "load";
  await_quiet ();
  (match Hashtbl.find_opt samples "load" with
  | None when !error = None -> fail "load request did not succeed"
  | _ -> ());
  (* the load reply is setup, not part of the measured run *)
  Hashtbl.remove samples "load";
  let gen_and_send () =
    let u = Randkit.Prng.float rng 1.0 in
    if u < 0.45 || (u < 0.70 && !n_live = 0) then begin
      (* add_task: 1–3 configurations over 1–3 distinct processors each *)
      let n_cfg = 1 + Randkit.Prng.int rng 3 in
      let config () =
        let k = 1 + Randkit.Prng.int rng (min 3 opts.procs) in
        let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:opts.procs in
        J.Obj
          [
            ("procs", J.List (Array.to_list (Array.map (fun p -> J.Num (float_of_int p)) procs)));
            ("weight", J.Num (0.5 +. Randkit.Prng.float rng 1.5));
          ]
      in
      send
        [
          ("op", J.Str "add_task");
          ("session", J.Str session);
          ("configs", J.List (List.init n_cfg (fun _ -> config ())));
        ]
        "add_task";
      let a = !live in
      if !n_live >= Array.length a then begin
        let bigger = Array.make (max 16 (2 * Array.length a)) 0 in
        Array.blit a 0 bigger 0 (Array.length a);
        live := bigger
      end;
      !live.(!n_live) <- !next_tid;
      Stdlib.incr next_tid;
      Stdlib.incr n_live
    end
    else if u < 0.70 then begin
      let i = Randkit.Prng.int rng !n_live in
      let tid = !live.(i) in
      !live.(i) <- !live.(!n_live - 1);
      Stdlib.decr n_live;
      send
        [ ("op", J.Str "remove_task"); ("session", J.Str session); ("task", J.Num (float_of_int tid)) ]
        "remove_task"
    end
    else if u < 0.85 then
      send
        [ ("op", J.Str "resolve"); ("session", J.Str session); ("budget_ms", J.Num opts.budget_ms) ]
        "resolve"
    else if u < 0.95 then send [ ("op", J.Str "ping") ] "ping"
    else send [ ("op", J.Str "stats") ] "stats"
  in
  let interval () =
    let u = Randkit.Prng.float rng 1.0 in
    Int64.of_float (-.Float.log (1.0 -. u) /. opts.rate *. 1e9)
  in
  let t_start = Obs.Span.now_ns () in
  let t_end = Int64.add t_start (Int64.of_float (opts.duration_s *. 1e9)) in
  let next_arrival = ref t_start in
  let measured0 = !sent in
  while
    !error = None
    && (Int64.compare (Obs.Span.now_ns ()) t_end < 0 || Hashtbl.length pending > 0)
  do
    (match stalled () with
    | Some (id, op) -> fail "no reply to request %d (%s) within %gs" id op opts.stall_timeout_s
    | None -> ());
    if !error = None then begin
      let now = Obs.Span.now_ns () in
      let wait =
        if Int64.compare now t_end >= 0 then 0.05
        else
          Float.min 0.05
            (Float.max 0.0 (Int64.to_float (Int64.sub !next_arrival now) /. 1e9))
      in
      drain_input wait;
      (* open loop: send everything due, catching up if we fell behind *)
      let now = ref (Obs.Span.now_ns ()) in
      while
        !error = None
        && Int64.compare !next_arrival !now <= 0
        && Int64.compare !now t_end < 0
      do
        gen_and_send ();
        next_arrival := Int64.add !next_arrival (interval ());
        now := Obs.Span.now_ns ()
      done
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
      let wall_s = Obs.Span.ns_to_s (Int64.sub (Obs.Span.now_ns ()) t_start) in
      let measured_sent = !sent - measured0 in
      let ops =
        Hashtbl.fold
          (fun op cell acc ->
            let a = Array.of_list !cell in
            Array.sort compare a;
            let n = Array.length a in
            if n = 0 then acc
            else
              {
                o_op = op;
                o_count = n;
                o_mean_ms = Array.fold_left ( +. ) 0.0 a /. float_of_int n;
                o_p50_ms = quantile_sorted a 0.5;
                o_p95_ms = quantile_sorted a 0.95;
                o_p99_ms = quantile_sorted a 0.99;
                o_max_ms = a.(n - 1);
                o_samples_ms = a;
              }
              :: acc)
          samples []
        |> List.sort (fun a b -> compare a.o_op b.o_op)
      in
      Ok
        {
          r_wall_s = wall_s;
          r_sent = measured_sent;
          r_replies = !replies - 1 (* minus the load reply *);
          r_busy = !busy;
          r_errors = !errors;
          r_reconnects = !reconnects;
          r_throughput_rps = (if wall_s > 0.0 then float_of_int !replies /. wall_s else 0.0);
          r_ops = ops;
        }

(* BENCH_server.json rows: one meta line, one line per op — JSON lines like
   the other bench artifacts, parseable back with Obs.Json. *)
let report_json opts r =
  let buf = Buffer.create 1024 in
  let line j =
    Buffer.add_string buf (J.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (J.Obj
       [
         ("type", J.Str "meta");
         ("seed", J.Num (float_of_int opts.seed));
         ("rate", J.Num opts.rate);
         ("duration_s", J.Num opts.duration_s);
         ("wall_s", J.Num r.r_wall_s);
         ("sent", J.Num (float_of_int r.r_sent));
         ("replies", J.Num (float_of_int r.r_replies));
         ("busy", J.Num (float_of_int r.r_busy));
         ("errors", J.Num (float_of_int r.r_errors));
         ("reconnects", J.Num (float_of_int r.r_reconnects));
         ("throughput_rps", J.Num r.r_throughput_rps);
       ]);
  List.iter
    (fun o ->
      line
        (J.Obj
           [
             ("type", J.Str "op");
             ("op", J.Str o.o_op);
             ("count", J.Num (float_of_int o.o_count));
             ("mean_ms", J.Num o.o_mean_ms);
             ("p50_ms", J.Num o.o_p50_ms);
             ("p95_ms", J.Num o.o_p95_ms);
             ("p99_ms", J.Num o.o_p99_ms);
             ("max_ms", J.Num o.o_max_ms);
           ]))
    r.r_ops;
  Buffer.contents buf

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "loadgen: %d sent, %d replies (%d busy, %d errors%s) in %.2fs — %.0f replies/s\n" r.r_sent
       r.r_replies r.r_busy r.r_errors
       (if r.r_reconnects > 0 then Printf.sprintf ", %d reconnects" r.r_reconnects else "")
       r.r_wall_s r.r_throughput_rps);
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %7s %9s %9s %9s %9s %9s\n" "op" "count" "mean_ms" "p50_ms" "p95_ms"
       "p99_ms" "max_ms");
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %7d %9.3f %9.3f %9.3f %9.3f %9.3f\n" o.o_op o.o_count o.o_mean_ms
           o.o_p50_ms o.o_p95_ms o.o_p99_ms o.o_max_ms))
    r.r_ops;
  Buffer.contents buf
