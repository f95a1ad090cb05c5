(* daemon-mixed: the online scheduler.  [semimatch_cli serve --persist-dir]
   runs as a child process with the default interval:100 journal fsync and
   one preloaded session, and one connection sends it a seeded script of
   requests: 45% add_task, 25% remove_task, 15% resolve, 10% ping, 5%
   stats.  The script — request bodies and arrival times — is drawn from
   the seed before the run, so it does not depend on replies.

   The end-to-end run is a closed loop: each request is sent when the reply
   to the one before it has arrived, and every cycle first reloads the
   session, so every cycle replays the same requests on the same state.
   With one request outstanding, every add_task batch holds one task and
   the daemon's answers are the same from run to run.  An open loop's
   timing-dependent batching and queueing turned the host's speed drift
   into 20-40% run-to-run spreads of its latency percentiles.

   The traced run adds an open-loop window: Poisson arrivals at [rate], each
   request timed from the moment it was due, not from when it was sent, so
   a resolve also charges the requests queued behind it (head-of-line
   blocking).  How late the generator itself ran is reported beside the
   latencies. *)

open Measure
module J = Obs.Json
module P = Server.Protocol

let tasks = 200
let procs = 32
let session = "bench"

(* Requests per closed-loop cycle: a cycle takes about 0.8 s on a 2-core x86
   VM, so a 15-second run holds about 18 cycles and 540 resolves. *)
let script_len = 200

(* A resolve budget that no resolve of this session size reaches. *)
let budget_ms = 1000.0

(* The open-loop window of the traced run: half the arrival rate at which
   the request backlog starts to grow on that VM (250-300 req/s). *)
let rate = 120.0
let reply_timeout_s = 10.0

type kind = Add | Remove | Resolve | Ping | Stats

let kind_name = function
  | Add -> "add_task"
  | Remove -> "remove_task"
  | Resolve -> "resolve"
  | Ping -> "ping"
  | Stats -> "stats"

type item = {
  id : int;
  due_ms : float;  (** open loop: offset from the window start *)
  kind : kind;
  line : string;  (** the request, with its id *)
  configs : P.config list;  (** add_task *)
  tid : int;  (** add_task: the id the daemon gives the task; remove_task: the task removed *)
  pins : int;  (** configuration pins of the session's tasks when sent *)
}

let instance ~seed =
  Hyper.Generate.generate
    (Randkit.Prng.create ~seed:(seed + 7919))
    ~family:Hyper.Generate.Fewg_manyg ~n:tasks ~p:procs ~dv:3 ~dh:4 ~g:(max 4 (procs / 8))
    ~weights:Hyper.Weights.Unit

let num i = J.Num (float_of_int i)

let mix = [ (Add, 0.45); (Remove, 0.25); (Resolve, 0.15); (Ping, 0.10); (Stats, 0.05) ]

(* [n] requests with Poisson arrivals at [rate], holding each kind exactly
   in the proportion of [mix] (n is a multiple of 20) in a seeded order, so
   that every seed asks for the same work.  Bodies start from the preloaded
   session; task ids are predicted client-side, since the daemon numbers
   tasks in arrival order. *)
let script ~seed ~n h =
  let rng = Randkit.Prng.create ~seed in
  let kinds =
    Array.of_list
      (List.concat_map (fun (k, share) -> List.init (int_of_float (share *. float_of_int n +. 0.5)) (fun _ -> k)) mix)
  in
  assert (Array.length kinds = n);
  Randkit.Prng.shuffle_in_place rng kinds;
  let task_pins = Hashtbl.create 1024 in
  for v = 0 to tasks - 1 do
    let p = ref 0 in
    Hyper.Graph.iter_task_hyperedges h v (fun e -> p := !p + Hyper.Graph.h_size h e);
    Hashtbl.replace task_pins v !p
  done;
  let pins = ref (Hashtbl.fold (fun _ p acc -> acc + p) task_pins 0) in
  let live = ref (Array.init tasks Fun.id) and n_live = ref tasks and next_tid = ref tasks in
  let t = ref 0.0 in
  Array.init n (fun id ->
      t := !t +. (-.Float.log (1.0 -. Randkit.Prng.float rng 1.0) /. rate *. 1000.0);
      let fields = ref [] and configs = ref [] and tid = ref (-1) in
      let kind =
        match kinds.(id) with
        | Add ->
          let n_cfg = 1 + Randkit.Prng.int rng 3 in
          let config () =
            let k = 1 + Randkit.Prng.int rng (min 3 procs) in
            let ps = Randkit.Prng.sample_without_replacement rng ~k ~n:procs in
            { P.procs = ps; weight = 0.5 +. Randkit.Prng.float rng 1.5 }
          in
          configs := List.init n_cfg (fun _ -> config ());
          let p = List.fold_left (fun acc c -> acc + Array.length c.P.procs) 0 !configs in
          tid := !next_tid;
          Hashtbl.replace task_pins !next_tid p;
          pins := !pins + p;
          if !n_live = Array.length !live then begin
            let bigger = Array.make (2 * !n_live) 0 in
            Array.blit !live 0 bigger 0 !n_live;
            live := bigger
          end;
          !live.(!n_live) <- !next_tid;
          incr n_live;
          incr next_tid;
          fields :=
            [
              ( "configs",
                J.List
                  (List.map
                     (fun c ->
                       J.Obj
                         [
                           ("procs", J.List (Array.to_list (Array.map num c.P.procs)));
                           ("weight", J.Num c.P.weight);
                         ])
                     !configs) );
            ];
          Add
        | Remove ->
          let i = Randkit.Prng.int rng !n_live in
          tid := !live.(i);
          !live.(i) <- !live.(!n_live - 1);
          decr n_live;
          pins := !pins - Hashtbl.find task_pins !tid;
          fields := [ ("task", num !tid) ];
          Remove
        | Resolve ->
          fields := [ ("budget_ms", J.Num budget_ms) ];
          Resolve
        | k -> k
      in
      let base = [ ("id", num id); ("op", J.Str (kind_name kind)) ] in
      let base = match kind with Ping | Stats -> base | _ -> base @ [ ("session", J.Str session) ] in
      {
        id;
        due_ms = !t;
        kind;
        line = J.to_string (J.Obj (base @ !fields));
        configs = !configs;
        tid = !tid;
        pins = !pins;
      })

(* ---------- the daemon child ---------- *)

type daemon = { pid : int; fd : Unix.file_descr; dir : string; buf : Buffer.t }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let chunk = Bytes.create 65536

(* Read what is available within [timeout] seconds and return the complete
   reply lines. *)
let read_lines d timeout =
  match Unix.select [ d.fd ] [] [] timeout with
  | [], _, _ -> []
  | _ -> (
      match Unix.read d.fd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "daemon closed the connection"
      | n ->
          Buffer.add_subbytes d.buf chunk 0 n;
          let parts = String.split_on_char '\n' (Buffer.contents d.buf) in
          let rec split = function
            | [] -> []
            | [ last ] ->
                Buffer.clear d.buf;
                Buffer.add_string d.buf last;
                []
            | l :: rest -> l :: split rest
          in
          split parts)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Wait for the reply carrying [id]; a late reply to an earlier request is
   skipped. *)
let await d id =
  let deadline = Unix.gettimeofday () +. reply_timeout_s in
  let rec wait = function
    | l :: rest -> (
        match J.of_string l with r when J.member "id" r = Some id -> r | _ -> wait rest)
    | [] ->
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "no reply within %g s" reply_timeout_s);
        wait (read_lines d 0.5)
  in
  wait []

(* One request outside the script, which must succeed. *)
let call d fields =
  write_line d.fd (J.to_string (J.Obj (("id", J.Str "bench") :: fields)));
  let r = await d (J.Str "bench") in
  if J.member "ok" r <> Some (J.Bool true) then failwith ("daemon error: " ^ J.to_string r);
  r

let field r name = Option.bind (J.member name r) J.to_float
let load_session d text = call d [ ("op", J.Str "load"); ("session", J.Str session); ("instance", J.Str text) ]

let spawn ~cli ~work ~text =
  let dir = Filename.concat work "daemon" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  if String.length sock > 100 then failwith ("socket path too long: " ^ sock);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* the daemon's Runtime_events ring file goes to its own directory *)
  let env = Array.append [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env cli
      [| cli; "serve"; "--socket"; sock; "--persist-dir"; Filename.concat dir "persist"; "--jobs"; "1" |]
      env devnull devnull log
  in
  Unix.close devnull;
  Unix.close log;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        connect ()
  in
  connect ();
  let d = { pid; fd; dir; buf = Buffer.create 65536 } in
  ignore (load_session d text);
  (* the daemon's first solve, outside the measured loop *)
  ignore
    (call d [ ("op", J.Str "resolve"); ("session", J.Str session); ("budget_ms", J.Num budget_ms) ]);
  d

let stop d =
  (try ignore (call d [ ("op", J.Str "shutdown") ]) with Failure _ | Unix.Unix_error _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  rm_rf d.dir

(* ---------- the closed loop ---------- *)

(* An error or busy reply is a failed request; a reply that contradicts
   the script is a wrong answer. *)
let check ratios it r =
  if J.member "ok" r <> Some (J.Bool true) then failwith ("error reply: " ^ J.to_string r);
  let int_of name = Option.map int_of_float (field r name) in
  match it.kind with
  | Add -> if int_of "tid" <> Some it.tid then wrong "add_task %d: reply %s, expected task %d" it.id (J.to_string r) it.tid
  | Remove -> if int_of "task" <> Some it.tid then wrong "remove_task %d: reply %s" it.id (J.to_string r)
  | Resolve -> (
      match (field r "makespan", field r "lower_bound") with
      | Some m, Some lb when lb > 0.0 && m >= lb -. 1e-9 -> ratios.(it.id) <- m /. lb
      | _ -> wrong "resolve %d: makespan missing or below its lower bound: %s" it.id (J.to_string r))
  | Ping -> if J.member "pong" r <> Some (J.Bool true) then wrong "ping %d without pong" it.id
  | Stats -> ()

let exchange d ratios it () =
  span "bench.send" (fun () -> write_line d.fd it.line);
  let r = span "bench.await" (fun () -> await d (num it.id)) in
  span "bench.check" (fun () -> check ratios it r)

let reset d text () =
  let r = span "bench.await" (fun () -> load_session d text) in
  if field r "tasks" <> Some (float_of_int tasks) then wrong "reload: reply %s" (J.to_string r)

(* ---------- the open loop (traced run) ---------- *)

type window = {
  latency_ms : float array;  (** per item, due time to reply; nan when failed *)
  late_ms : float array;  (** per item, send time minus due time *)
  replies : J.t option array;
  w_failed : int;
}

let open_loop d items =
  let n = Array.length items in
  let latency = Array.make n Float.nan and late = Array.make n 0.0 in
  let replies = Array.make n None in
  let answered = ref 0 and failed = ref 0 in
  let t0 = Int64.add (now_ns ()) 20_000_000L in
  let due i = Int64.add t0 (Int64.of_float (items.(i).due_ms *. 1e6)) in
  let next = ref 0 in
  let drain_deadline = Int64.add (due (n - 1)) (Int64.of_float (reply_timeout_s *. 1e9)) in
  let handle line =
    if line <> "" then begin
      let r = J.of_string line in
      let id =
        match field r "id" with Some f -> int_of_float f | None -> failwith ("reply without id: " ^ line)
      in
      if id < 0 || id >= !next || replies.(id) <> None then failwith ("unexpected reply id: " ^ line);
      replies.(id) <- Some r;
      incr answered;
      if J.member "ok" r = Some (J.Bool true) then latency.(id) <- ms_between (now_ns ()) (due id)
      else incr failed
    end
  in
  while !answered < n && Int64.compare (now_ns ()) drain_deadline < 0 do
    let now = now_ns () in
    while !next < n && Int64.compare (due !next) now <= 0 do
      late.(!next) <- ms_between (now_ns ()) (due !next);
      write_line d.fd items.(!next).line;
      incr next
    done;
    let wait =
      if !next < n then Float.max 0.0 (Float.min 0.05 (Int64.to_float (Int64.sub (due !next) (now_ns ())) /. 1e9))
      else 0.05
    in
    List.iter handle (read_lines d wait)
  done;
  let timeouts = n - !answered in
  if timeouts > 0 then Printf.eprintf "perfbench: %d requests timed out\n%!" timeouts;
  { latency_ms = latency; late_ms = late; replies; w_failed = !failed + timeouts }

(* ---------- checks and scraped metrics ---------- *)

(* After the run: the session's snapshot must restore, pass Session.verify,
   and its recomputed loads must give the restored makespan. *)
let check_session d =
  let snap = call d [ ("op", J.Str "snapshot"); ("session", J.Str session) ] in
  let state = match J.member "state" snap with Some s -> s | None -> wrong "snapshot without state" in
  let s = match Server.Session.restore ~id:session state with Ok s -> s | Error e -> wrong "restore: %s" e in
  (match Server.Session.verify s with Ok () -> () | Error e -> wrong "verify: %s" e);
  let h =
    match Option.bind (J.member "instance" state) J.to_str with
    | Some text -> Hyper.Io.of_string text
    | None -> wrong "snapshot without instance"
  in
  let chosen =
    match J.member "chosen" state with
    | Some (J.List l) -> Array.of_list (List.map (fun j -> int_of_float (Option.get (J.to_float j))) l)
    | _ -> wrong "snapshot without chosen"
  in
  let loads = Array.make h.Hyper.Graph.n2 0.0 in
  if Array.length chosen <> h.Hyper.Graph.n1 then wrong "snapshot has %d choices for %d tasks" (Array.length chosen) h.Hyper.Graph.n1;
  (* [chosen] indexes each task's own configurations; no processor died, so
     every task must be placed *)
  Array.iteri
    (fun v c ->
      if c < 0 || c >= Hyper.Graph.task_degree h v then wrong "task %d has configuration index %d" v c;
      let e = h.Hyper.Graph.task_off.(v) + c in
      Hyper.Graph.iter_h_procs h e (fun u -> loads.(u) <- loads.(u) +. Hyper.Graph.h_weight h e))
    chosen;
  let m = Array.fold_left Float.max 0.0 loads in
  if Float.abs (m -. Server.Session.makespan s) > 1e-9 *. Float.max 1.0 m then
    wrong "snapshot loads give makespan %g, session reports %g" m (Server.Session.makespan s);
  let stats = call d [ ("op", J.Str "stats") ] in
  if field stats "pending" <> Some 0.0 then wrong "requests still pending after the run"

(* Cumulative log2 buckets of one histogram family in a Prometheus
   exposition: (upper bound, cumulative count), +Inf last. *)
let buckets exposition family =
  let prefix = family ^ "_bucket{le=\"" in
  List.filter_map
    (fun line ->
      if String.length line > String.length prefix && String.sub line 0 (String.length prefix) = prefix
      then
        let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        match String.index_opt rest '"' with
        | None -> None
        | Some q ->
            let le = String.sub rest 0 q in
            let count = String.trim (String.sub rest (q + 2) (String.length rest - q - 2)) in
            Some ((if le = "+Inf" then Float.infinity else float_of_string le), float_of_string count)
      else None)
    (String.split_on_char '\n' exposition)

(* Quantile of the observations made between two scrapes, interpolating
   linearly inside the bucket that holds it. *)
let window_quantile before after q =
  let delta =
    List.map
      (fun (le, c) -> (le, c -. Option.value ~default:0.0 (List.assoc_opt le before)))
      after
  in
  let total = match List.rev delta with (_, c) :: _ -> c | [] -> 0.0 in
  if total <= 0.0 then 0.0
  else begin
    let target = q *. total in
    let rec go lo prev = function
      | [] -> lo
      | (le, c) :: rest ->
          if c >= target then
            if le = Float.infinity || c = prev then lo
            else lo +. ((le -. lo) *. (target -. prev) /. (c -. prev))
          else go le c rest
    in
    go 0.0 0.0 delta
  end

let phases = [ "parse"; "queue_wait"; "solve"; "reply" ]
let scrape d = Option.get (Option.bind (J.member "exposition" (call d [ ("op", J.Str "metrics") ])) J.to_str)

(* ---------- in-process replay ---------- *)

(* The same script through Session and Journal directly, one call at a
   time: what each mutation, each resolve, each journal append and each
   fsync costs without the socket and the daemon's loop. *)
let replay ~work h items =
  let s, _ = Server.Session.of_graph ~id:session h in
  ignore (Server.Session.resolve ~jobs:1 ~budget_s:(budget_ms /. 1000.0) s);
  let path = Filename.concat work "replay.wal" in
  let j = Server.Journal.open_writer ~policy:Server.Journal.Never path in
  let add = Samples.create () and remove = Samples.create () and resolve = Samples.create () in
  let append = Samples.create () and sync = Samples.create () in
  let appends = ref 0 in
  let journal line =
    Samples.add append (1000.0 *. snd (time_ms (fun () -> Server.Journal.append j line)));
    incr appends;
    if !appends mod 25 = 0 then Samples.add sync (snd (time_ms (fun () -> Server.Journal.sync j)))
  in
  Array.iter
    (fun it ->
      match it.kind with
      | Add ->
          Samples.add add (snd (time_ms (fun () -> ignore (Server.Session.add_tasks s [ it.configs ]))));
          journal it.line
      | Remove ->
          Samples.add remove (snd (time_ms (fun () -> ignore (Server.Session.remove_task s it.tid))));
          journal it.line
      | Resolve ->
          Samples.add resolve
            (snd (time_ms (fun () -> ignore (Server.Session.resolve ~jobs:1 ~budget_s:(budget_ms /. 1000.0) s))))
      | Ping | Stats -> ())
    items;
  Server.Journal.close j;
  Sys.remove path;
  let m x = mean (Samples.to_array x) in
  Printf.printf "in-process replay: add_tasks %.3f ms, remove_task %.3f ms, resolve %.3f ms, journal append %.1f us, fsync %.3f ms\n"
    (m add) (m remove) (m resolve) (m append) (m sync);
  [
    metric "server.session.add_tasks_ms" "ms" (m add);
    metric "server.session.remove_task_ms" "ms" (m remove);
    metric "server.session.resolve_ms" "ms" (m resolve);
    metric "server.journal.append_us" "us" (m append);
    metric "server.journal.sync_ms" "ms" (m sync);
  ]

(* The open-loop window of the traced run, on a reloaded session, with the
   daemon's phase histograms scraped around it. *)
let traced_window ~seed ~seconds d h text =
  let items = script ~seed:(seed + 1) ~n:(int_of_float (rate *. seconds /. 2.0)) h in
  ignore (load_session d text);
  let before = scrape d in
  let w = open_loop d items in
  let after = scrape d in
  let ok_of kind =
    Array.of_list
      (List.filter_map
         (fun it -> if it.kind = kind && not (Float.is_nan w.latency_ms.(it.id)) then Some w.latency_ms.(it.id) else None)
         (Array.to_list items))
  in
  let all = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list w.latency_ms)) in
  let late = sorted w.late_ms in
  let n = Array.length items in
  let late_p99 = quantile late 0.99 and late_max = late.(n - 1) in
  let req_tail = tail ~pct:98.0 all in
  Printf.printf "\nopen-loop window: %d requests at %g/s on a reloaded session, %d failed\n" n rate w.w_failed;
  List.iter
    (fun (k, pct) -> print_tail ~pct (kind_name k) (ok_of k))
    [ (Add, 95.0); (Remove, 95.0); (Resolve, 90.0); (Ping, 85.0); (Stats, 50.0) ];
  print_tail ~pct:98.0 "all requests" all;
  Printf.printf "  generator lateness: p99 %.3f ms, max %.3f ms%s\n" late_p99 late_max
    (if late_p99 > 0.1 *. req_tail.value then "  (FLAGGED: lateness distorts the tail)" else "");
  let phase_metrics =
    List.concat_map
      (fun p ->
        let fam = Printf.sprintf "semimatch_server_phase_%s_us" p in
        let b0 = buckets before fam and b1 = buckets after fam in
        [
          metric (Printf.sprintf "server.phase.%s_us.p50" p) "us" (window_quantile b0 b1 0.5);
          metric (Printf.sprintf "server.phase.%s_us.p99" p) "us" (window_quantile b0 b1 0.99);
        ])
      phases
  in
  Printf.printf "  server phases over the window (p50 / p99 us):\n";
  List.iter
    (fun p ->
      let v q = (List.find (fun m -> m.m_name = Printf.sprintf "server.phase.%s_us.%s" p q) phase_metrics).m_value in
      Printf.printf "    %-12s %10.1f %10.1f\n" p (v "p50") (v "p99"))
    phases;
  let replies kind =
    List.filter_map
      (fun it -> if it.kind = kind then w.replies.(it.id) else None)
      (Array.to_list items)
  in
  let batched = List.filter_map (fun r -> field r "batched") (replies Add) in
  let resolves = replies Resolve in
  let degraded = List.length (List.filter (fun r -> J.member "degraded" r = Some (J.Bool true)) resolves) in
  let metrics =
    [
      metric "daemon.add_task_p50_ms" "ms" (median (ok_of Add));
      metric "daemon.add_task_tail_ms" "ms" (tail ~pct:95.0 (ok_of Add)).value;
      metric "daemon.resolve_p50_ms" "ms" (median (ok_of Resolve));
      metric "daemon.resolve_tail_ms" "ms" (tail ~pct:90.0 (ok_of Resolve)).value;
      metric "daemon.ping_tail_ms" "ms" (tail ~pct:85.0 (ok_of Ping)).value;
      metric "daemon.lateness_p99_ms" "ms" late_p99;
      metric "daemon.lateness_max_ms" "ms" late_max;
      metric "server.batch_size" "count" (mean (Array.of_list batched));
      metric "server.resolve.degraded_frac" "frac"
        (float_of_int degraded /. float_of_int (max 1 (List.length resolves)));
    ]
    @ phase_metrics
  in
  (n, w.w_failed, metrics)

(* ---------- the workload ---------- *)

let run ~seed ~seconds ~trace ~work ~cli =
  if cli = "" || not (Sys.file_exists cli) then failwith "daemon-mixed needs --cli PATH to semimatch_cli";
  let h = instance ~seed in
  let text = Hyper.Io.to_string h in
  let items = script ~seed ~n:script_len h in
  let ratios = Array.make script_len Float.nan in
  (* set-up ends with a warm-up cycle, so the heap of both processes has
     grown; repeating it with the spawn keeps one slow warm-up from moving
     setup_s *)
  let (d, ops), setup_ms =
    repeated_setup
      ~teardown:(fun (d, _) -> stop d)
      (fun () ->
        let d = spawn ~cli ~work ~text in
        let ops =
          Array.append
            [| ("reload", reset d text) |]
            (Array.map (fun it -> (kind_name it.kind, exchange d ratios it)) items)
        in
        Array.iter (fun (_, op) -> op ()) ops;
        (d, ops))
  in
  let loop = closed_loop ~seconds ~trace ops in
  let per = Array.length ops in
  let is kind j = j > 0 && items.(j - 1).kind = kind in
  let resolves = by_cycle loop ~ops_per_cycle:per ~keep:(is Resolve) in
  let requests = by_cycle loop ~ops_per_cycle:per ~keep:(fun j -> j > 0) in
  let flat a = Array.concat (Array.to_list a) in
  let resolve_pins = List.fold_left (fun acc it -> if it.kind = Resolve then acc + it.pins else acc) 0 (Array.to_list items) in
  let resolve_s = sum (flat resolves) /. 1000.0 in
  let open_n, open_failed, window_metrics =
    if trace then traced_window ~seed ~seconds d h text else (0, 0, [])
  in
  let wrong_answers =
    match check_session d with
    | () -> 0
    | exception Wrong msg ->
        Printf.eprintf "perfbench: wrong answer: %s\n%!" msg;
        1
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  let ratios = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list ratios) in
  Printf.printf "daemon-mixed: closed loop, %d cycles of a reload and %d requests, resolve budget %g ms\n"
    loop.cycles script_len budget_ms;
  print_speed loop.kernel_ms;
  List.iter
    (fun (k, pct) -> print_tail ~pct (kind_name k) (flat (by_cycle loop ~ops_per_cycle:per ~keep:(is k))))
    [ (Add, 95.0); (Remove, 95.0); (Resolve, 90.0); (Ping, 90.0); (Stats, 80.0) ];
  print_tail ~pct:98.0 "all but resolve, scaled"
    (flat (by_cycle loop ~ops_per_cycle:per ~keep:(fun j -> j > 0 && not (is Resolve j))));
  print_tail ~pct:98.0 "all requests, scaled" (flat requests);
  let e2e =
    [
      metric "setup_s" "s" (setup_ms *. run_scale loop.kernel_ms /. 1000.0);
      metric "solve_p50_ms" "ms" (median (Array.map median resolves));
      metric "solve_tail_ms" "ms" (tail ~pct:90.0 (flat resolves)).value;
      metric "request_p50_ms" "ms" (median (Array.map median requests));
      metric "request_tail_ms" "ms" (tail ~pct:98.0 (flat requests)).value;
      metric "makespan_ratio" "ratio" (geomean ratios);
      metric "edges_per_s" "edges/s"
        (float_of_int (resolve_pins * Array.length resolves) /. resolve_s);
      metric "peak_rss_mb" "MB" rss;
      metric "ok_frac" "frac"
        (ok_frac ~attempted:(loop.l_attempted + open_n) ~failed:(loop.l_failed + open_failed));
    ]
  in
  let layers =
    if not trace then []
    else begin
      print_ledger ~title:"daemon-mixed closed loop (bench.await is the daemon's time)" loop;
      (metric "trace.overhead_pct" "%" (overhead_pct loop) :: window_metrics) @ replay ~work h items
    end
  in
  {
    attempted = loop.l_attempted + open_n;
    failed = loop.l_failed + open_failed;
    wrong_answers = loop.l_wrong + wrong_answers;
    e2e;
    layers;
  }
