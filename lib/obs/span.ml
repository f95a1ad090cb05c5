(* Monotonic span timers with a bounded trace.

   [now_ns]/[time_s] always read the clock — experiment harnesses use them
   for wall timing whether or not telemetry is on.  [enter]/[exit]/[timed]
   additionally record into a fixed-capacity ring buffer (the most recent
   [capacity] spans, with nesting depth, recording-domain id and optional
   flow id) and into per-name aggregates, but only when [Config.enabled] is
   set; disabled spans cost one branch.

   Domain safety: nesting depth is domain-local (spans nest within the
   domain that opened them), while the shared ring and aggregates are
   guarded by a mutex.  Spans are coarse events (one per algorithm run, not
   per edge), so a lock at [exit] is free in practice — the per-event
   counters and histograms, which do sit on hot paths, are the lock-free
   sharded ones in [Metrics].

   Flow ids connect causally-related records across domains (a task
   submitted on one domain, executed on another); [Trace] pairs them into
   Chrome trace-event flow arrows.  Id 0 means "no flow". *)

external now_ns : unit -> int64 = "obs_monotonic_ns"

let ns_to_s ns = Int64.to_float ns /. 1e9

(* Compare as floats first: [Int64.of_float] is unspecified past 2^63, and
   [to_float room] may round up, hence the second, exact check. *)
let deadline_after s =
  let now = now_ns () in
  let room = Int64.sub Int64.max_int now in
  let ns = Float.max 0.0 (s *. 1e9) in
  if ns < Int64.to_float room && Int64.of_float ns <= room then
    Some (Int64.add now (Int64.of_float ns))
  else None

let time_s f =
  let t0 = now_ns () in
  let result = f () in
  (result, ns_to_s (Int64.sub (now_ns ()) t0))

type record = {
  r_name : string;
  start_ns : int64;
  stop_ns : int64;
  depth : int;
  dom : int; (* id of the domain that recorded the span *)
  flow : int; (* cross-domain flow id, 0 = none *)
}

let sentinel = { r_name = ""; start_ns = 0L; stop_ns = 0L; depth = 0; dom = 0; flow = 0 }

let default_capacity = 4096
let lock = Mutex.create () (* guards the ring and the aggregates *)
let ring = ref (Array.make default_capacity sentinel)
let ring_next = ref 0 (* next write slot *)
let ring_stored = ref 0 (* total records ever written *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

(* Flow ids are process-global so submit/execute pairs agree whichever
   domains they land on; 0 is reserved for "no flow". *)
let flow_counter = Atomic.make 1

let new_flows n = if n <= 0 then 0 else Atomic.fetch_and_add flow_counter n

type agg = { a_name : string; mutable a_count : int; mutable a_total_ns : int64 }

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

type t = { sp_name : string; sp_start : int64; sp_flow : int; sp_live : bool }

let inert = { sp_name = ""; sp_start = 0L; sp_flow = 0; sp_live = false }

let self_id () = (Domain.self () :> int)

let enter ?(flow = 0) name =
  if !Config.enabled then begin
    Stdlib.incr (Domain.DLS.get depth_key);
    { sp_name = name; sp_start = now_ns (); sp_flow = flow; sp_live = true }
  end
  else inert

let push_record r update_agg =
  Config.beat r.stop_ns;
  Mutex.protect lock (fun () ->
      let a = !ring in
      a.(!ring_next) <- r;
      ring_next := (!ring_next + 1) mod Array.length a;
      Stdlib.incr ring_stored;
      if update_agg then begin
        let agg =
          match Hashtbl.find_opt aggs r.r_name with
          | Some agg -> agg
          | None ->
              let agg = { a_name = r.r_name; a_count = 0; a_total_ns = 0L } in
              Hashtbl.add aggs r.r_name agg;
              agg
        in
        agg.a_count <- agg.a_count + 1;
        agg.a_total_ns <- Int64.add agg.a_total_ns (Int64.sub r.stop_ns r.start_ns)
      end)

let exit sp =
  if sp.sp_live then begin
    let stop = now_ns () in
    let depth = Domain.DLS.get depth_key in
    Stdlib.decr depth;
    push_record
      {
        r_name = sp.sp_name;
        start_ns = sp.sp_start;
        stop_ns = stop;
        depth = !depth;
        dom = self_id ();
        flow = sp.sp_flow;
      }
      true
  end

let timed ?flow name f =
  let sp = enter ?flow name in
  Fun.protect ~finally:(fun () -> exit sp) f

(* A zero-duration record at the current instant: flow endpoints and other
   point-in-time markers.  Depth is the current nesting depth (the instant
   sits inside whatever spans are open); no aggregate is updated. *)
let instant ?(flow = 0) name =
  if !Config.enabled then begin
    let now = now_ns () in
    push_record
      {
        r_name = name;
        start_ns = now;
        stop_ns = now;
        depth = !(Domain.DLS.get depth_key);
        dom = self_id ();
        flow;
      }
      false
  end

(* Save/restore the calling domain's nesting depth around [f]: a span leaked
   inside [f] (entered, never exited) cannot skew the depths of later spans
   on this domain.  The pool wraps every task in this guard. *)
let with_depth_guard f =
  let d = Domain.DLS.get depth_key in
  let saved = !d in
  Fun.protect ~finally:(fun () -> d := saved) f

let duration_s r = ns_to_s (Int64.sub r.stop_ns r.start_ns)

(* Oldest-first live contents of the ring. *)
let records () =
  Mutex.protect lock (fun () ->
      let a = !ring in
      let cap = Array.length a in
      let len = min !ring_stored cap in
      let first = (!ring_next - len + cap) mod cap in
      List.init len (fun i -> a.((first + i) mod cap)))

let recorded () = Mutex.protect lock (fun () -> !ring_stored)

let set_capacity n =
  if n <= 0 then invalid_arg "Span.set_capacity: capacity must be positive";
  Mutex.protect lock (fun () ->
      ring := Array.make n sentinel;
      ring_next := 0;
      ring_stored := 0)

let aggregates () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun _ a acc -> a :: acc) aggs [])
  |> List.sort (fun a b -> compare a.a_name b.a_name)

let fold_aggregates f init =
  List.fold_left
    (fun acc a -> f a.a_name ~count:a.a_count ~total_s:(ns_to_s a.a_total_ns) acc)
    init (aggregates ())

let reset () =
  Mutex.protect lock (fun () ->
      let a = !ring in
      Array.fill a 0 (Array.length a) sentinel;
      ring_next := 0;
      ring_stored := 0;
      Hashtbl.reset aggs);
  Domain.DLS.get depth_key := 0
