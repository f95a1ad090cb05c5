(* Clocks, the machine-speed kernel, sample statistics, the in-memory span
   recorder and the closed loop shared by every workload of the
   benchmark. *)

let now_ns = Obs.Span.now_ns
let ms_between t1 t0 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between (now_ns ()) t0

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* ---------- sample statistics ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let quantile a q = Server.Loadgen.quantile_sorted (sorted a) q
let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

(* A latency tail: the [pct] percentile, with the sample count and how many
   samples lie beyond it.  Each workload fixes its percentile so that at
   least ten samples lie beyond it at the workload's size and rate: a fixed
   percentile stays on the same order statistic when a run collects a few
   more or fewer samples.  [pct = 100.] is the maximum. *)
type tail = { value : float; pct : float; n : int; beyond : int }

let tail ~pct a =
  let n = Array.length a in
  {
    value = (if n = 0 then 0.0 else quantile a (pct /. 100.0));
    pct;
    n;
    beyond = int_of_float (float_of_int n *. (100.0 -. pct) /. 100.0);
  }

let geomean l =
  match l with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(* Growable float sample vector. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> loop ()
      in
      loop ())

(* ---------- machine speed ---------- *)

(* A shared host changes speed by tens of percent within seconds: on the
   2-core VM this benchmark was tuned on, a fixed CPU loop ran up to 35%
   slower in one 5-second window than in another, in CPU time as much as in
   wall-clock time.  So a speed kernel that uses none of the program's code
   is timed next to the measured work, and end-to-end times are reported at
   the speed at which the kernel takes [nominal_ms]:
   reported = measured * nominal_ms / kernel_ms. *)
let nominal_ms = 5.0

let kernel_input =
  let x = ref 1 in
  Array.init 16_384 (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      !x)

let kernel_work = Array.make (Array.length kernel_input) 0

(* An in-place sort of 16k integers: memory traffic and branches like the
   solvers, and no allocation, so the program's heap cannot slow it.  Best
   of two. *)
let kernel_ms () =
  let once () =
    snd
      (time_ms (fun () ->
           Array.blit kernel_input 0 kernel_work 0 (Array.length kernel_input);
           Array.sort Int.compare kernel_work))
  in
  Float.min (once ()) (once ())

(* The factor a run's times are scaled by. *)
let run_scale kernels = nominal_ms /. median kernels

(* ---------- spans ---------- *)

(* Spans recorded around calls into the program's layers, kept in memory
   while enabled and written out as a Chrome trace when the run ends.  A
   span's self time is its duration minus the part its child spans
   cover. *)
module Trace = struct
  type span = { name : string; start : int64; mutable stop : int64; parent : int }

  let enabled = ref false
  let spans : span array ref = ref [||]
  let count = ref 0
  let stack = ref []

  let push s =
    if !count = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * !count)) s in
      Array.blit !spans 0 b 0 !count;
      spans := b
    end;
    !spans.(!count) <- s;
    incr count

  let span name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with [] -> -1 | i :: _ -> i in
      let idx = !count in
      push { name; start = now_ns (); stop = 0L; parent };
      stack := idx :: !stack;
      let finish () =
        !spans.(idx).stop <- now_ns ();
        stack := List.tl !stack
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  let all () = Array.sub !spans 0 !count

  (* Per span name: (calls, inclusive ms, self ms), in first-seen order. *)
  let ledger () =
    let spans = all () in
    let child = Array.make (Array.length spans) 0.0 in
    Array.iter
      (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. ms_between s.stop s.start)
      spans;
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i s ->
        let dur = ms_between s.stop s.start in
        let calls, incl, self =
          match Hashtbl.find_opt tbl s.name with
          | Some v -> v
          | None ->
              order := s.name :: !order;
              (0, 0.0, 0.0)
        in
        Hashtbl.replace tbl s.name (calls + 1, incl +. dur, self +. dur -. child.(i)))
      spans;
    List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

  let inclusive_ms name =
    match List.assoc_opt name (ledger ()) with Some (_, incl, _) -> incl | None -> 0.0

  let write_chrome path =
    let spans = all () in
    let t0 = if Array.length spans = 0 then 0L else spans.(0).start in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    Array.iteri
      (fun i s ->
        Printf.fprintf oc "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
          (if i = 0 then "" else ",")
          s.name
          (Int64.to_float (Int64.sub s.start t0) /. 1e3)
          (Int64.to_float (Int64.sub s.stop s.start) /. 1e3))
      spans;
    output_string oc "]}\n";
    close_out oc
end

let span = Trace.span

(* ---------- results ---------- *)

exception Wrong of string
(** A checked answer that is not correct. *)

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;  (** wrong answers, exceptions, busy/error replies, timeouts *)
  wrong_answers : int;  (** the part of [failed] whose answer was checked and wrong *)
  e2e : metric list;  (** untraced run *)
  layers : metric list;  (** traced run *)
}

let ok_frac ~attempted ~failed =
  if attempted = 0 then 0.0 else 1.0 -. (float_of_int failed /. float_of_int attempted)

(* Set-up runs [setup_reps] times and reports the median, so one slow
   repetition does not move [setup_s]; every repetition but the last is
   released with [teardown]. *)
let setup_reps = 3

let repeated_setup ?(teardown = ignore) f =
  let rec go i times =
    let st, ms = time_ms f in
    if i < setup_reps then begin
      teardown st;
      go (i + 1) (ms :: times)
    end
    else begin
      let med = median (Array.of_list (ms :: times)) in
      Printf.printf "set-up: median of %d = %.1f ms\n%!" setup_reps med;
      (st, med)
    end
  in
  go 1 []

(* ---------- the closed loop ---------- *)

type loop = {
  measured_ms : float array;  (** per-op latency of untraced cycles *)
  scaled_ms : float array;  (** the same at the nominal machine speed *)
  traced_ms : float array;  (** per-op latency of traced cycles *)
  kernel_ms : float array;  (** the speed kernel before each untraced cycle *)
  cycles : int;
  l_attempted : int;
  l_failed : int;
  l_wrong : int;
}

(* One caller runs whole cycles over [ops] until [seconds] have passed, so
   every op of the cycle is sampled equally often.  The speed kernel runs
   before each untraced cycle and scales that cycle's latencies.  With
   [trace], odd cycles record spans and even ones do not: the gap between
   the two is the tracing overhead. *)
let closed_loop ~seconds ~trace (ops : (string * (unit -> unit)) array) =
  let measured = Samples.create () and scaled = Samples.create () in
  let traced = Samples.create () and kernels = Samples.create () in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let t_start = now_ns () in
  let cycles = ref 0 in
  while !cycles = 0 || ms_since t_start < 1000.0 *. seconds || (trace && !cycles < 2) do
    let on = trace && !cycles mod 2 = 1 in
    let scale =
      if on then 1.0
      else begin
        let k = kernel_ms () in
        Samples.add kernels k;
        nominal_ms /. k
      end
    in
    Trace.enabled := on;
    Array.iter
      (fun (name, op) ->
        incr attempted;
        let t0 = now_ns () in
        (try span "op" op with
        | Wrong msg ->
            incr failed;
            incr wrong;
            Printf.eprintf "perfbench: wrong answer on %s: %s\n%!" name msg
        | e ->
            incr failed;
            Printf.eprintf "perfbench: %s failed: %s\n%!" name (Printexc.to_string e));
        let ms = ms_since t0 in
        if on then Samples.add traced ms
        else begin
          Samples.add measured ms;
          Samples.add scaled (ms *. scale)
        end)
      ops;
    incr cycles
  done;
  Trace.enabled := false;
  {
    measured_ms = Samples.to_array measured;
    scaled_ms = Samples.to_array scaled;
    traced_ms = Samples.to_array traced;
    kernel_ms = Samples.to_array kernels;
    cycles = !cycles;
    l_attempted = !attempted;
    l_failed = !failed;
    l_wrong = !wrong;
  }

(* The scaled latencies of the untraced cycles, one array per cycle,
   holding the ops at the positions in the cycle that [keep] selects. *)
let by_cycle ?(keep = fun _ -> true) loop ~ops_per_cycle =
  let a = loop.scaled_ms in
  let kept = List.filter keep (List.init ops_per_cycle Fun.id) in
  Array.init (Array.length a / ops_per_cycle) (fun c ->
      Array.of_list (List.map (fun j -> a.((c * ops_per_cycle) + j)) kept))

(* The median op latency of a closed loop: the median over cycles of each
   cycle's median.  Every cycle holds each instance once, so this stays on
   the same instances from run to run instead of landing on the edge
   between two instances' latency clusters. *)
let cycle_median loop ~ops_per_cycle = median (Array.map median (by_cycle loop ~ops_per_cycle))

(* Per-op mean of a span name over the traced ops of a loop. *)
let per_op_ms loop name =
  let ops = Array.length loop.traced_ms in
  if ops = 0 then 0.0 else Trace.inclusive_ms name /. float_of_int ops

let overhead_pct loop =
  let u = mean loop.measured_ms and t = mean loop.traced_ms in
  if u = 0.0 then 0.0 else 100.0 *. ((t /. u) -. 1.0)

(* ---------- printing ---------- *)

let print_speed kernels =
  Printf.printf "machine speed: kernel %.3f ms (median of %d, nominal %.1f ms), times scaled by %.3f\n"
    (median kernels) (Array.length kernels) nominal_ms (run_scale kernels)

let print_ledger ~title loop =
  let ops = max 1 (Array.length loop.traced_ms) in
  let op_ms = mean loop.traced_ms in
  Printf.printf "\nwhere time goes: %s (%d traced ops, %.3f ms/op traced, %.3f ms/op untraced, tracing overhead %+.2f%%)\n"
    title ops op_ms (mean loop.measured_ms) (overhead_pct loop);
  Printf.printf "  %-34s %8s %12s %8s\n" "span" "calls" "self ms/op" "share";
  List.iter
    (fun (name, (calls, _, self)) ->
      let per = self /. float_of_int ops in
      Printf.printf "  %-34s %8d %12.4f %7.1f%%\n" name calls per
        (if op_ms > 0.0 then 100.0 *. per /. op_ms else 0.0))
    (Trace.ledger ())

(* Per-op mean latency of each op of the cycle (untraced cycles). *)
let print_per_op loop names =
  let k = Array.length names in
  Array.iteri
    (fun i name ->
      let mine = List.filteri (fun j _ -> j mod k = i) (Array.to_list loop.measured_ms) in
      Printf.printf "  %-24s mean %.3f ms over %d ops\n" name (mean (Array.of_list mine)) (List.length mine))
    names

let print_tail ~pct label a =
  let t = tail ~pct a in
  Printf.printf "  %-28s n=%-6d p50=%.3f ms  p%g=%.3f ms (%d beyond)  max=%.3f ms%s\n" label t.n (median a)
    t.pct t.value t.beyond
    (if t.n = 0 then 0.0 else (sorted a).(t.n - 1))
    (if t.pct < 100.0 && t.beyond < 10 then "  (fewer than 10 beyond)" else "")
