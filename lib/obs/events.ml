(* Structured event log: leveled, timestamped key→value records in a bounded
   ring, emitted by the solvers at coarse decision points (an incumbent
   improvement, a lower-bound cutoff, a temperature epoch, a Hopcroft–Karp
   phase) — the "what happened when" companion to the "how much" counters of
   [Metrics] and the "how long" spans of [Span].

   Domain safety mirrors [Span]: events are coarse (never per edge), so a
   mutex-guarded shared ring is free in practice, and each record carries
   the id of the domain that emitted it.  Everything is gated on
   [Config.enabled] plus a minimum level; a disabled emit costs one load
   and a branch before the field list is even looked at. *)

type level = Debug | Info | Warn

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

(* Record everything by default: the ring is bounded and emits are coarse,
   so filtering is usually better done at render time. *)
let min_level = ref Debug

let set_level l = min_level := l

type field = string * Json.t

let str k v : field = (k, Json.Str v)
let num k v : field = (k, Json.Num v)
let int k v : field = (k, Json.Num (float_of_int v))
let bool k v : field = (k, Json.Bool v)

type record = {
  e_ts_ns : int64;
  e_dom : int;
  e_level : level;
  e_name : string;
  e_fields : field list;
}

let default_capacity = 8192
let lock = Mutex.create ()
let ring = ref (Array.make default_capacity None)
let ring_next = ref 0
let ring_stored = ref 0

(* Overwrites of never-read records, mirroring [runtime.lost_events]: when
   the ring laps itself the oldest event silently vanishes from any later
   render, and a bundle's events tail is truncated.  The counter makes that
   truncation visible in the Prometheus exposition. *)
let c_dropped = Metrics.counter "events.dropped"
let () = Prom.describe "events.dropped" "Event-log ring overwrites of never-rendered records."

let emit ?(level = Info) name fields =
  if !Config.enabled && level_rank level >= level_rank !min_level then begin
    let r =
      {
        e_ts_ns = Span.now_ns ();
        e_dom = (Domain.self () :> int);
        e_level = level;
        e_name = name;
        e_fields = fields;
      }
    in
    Config.beat r.e_ts_ns;
    Mutex.protect lock (fun () ->
        let a = !ring in
        if a.(!ring_next) <> None then Metrics.incr c_dropped;
        a.(!ring_next) <- Some r;
        ring_next := (!ring_next + 1) mod Array.length a;
        Stdlib.incr ring_stored)
  end

(* Oldest-first live contents of the ring. *)
let records () =
  Mutex.protect lock (fun () ->
      let a = !ring in
      let cap = Array.length a in
      let len = min !ring_stored cap in
      let first = (!ring_next - len + cap) mod cap in
      List.init len (fun i -> a.((first + i) mod cap)))
  |> List.filter_map Fun.id

let recorded () = Mutex.protect lock (fun () -> !ring_stored)

let set_capacity n =
  if n <= 0 then invalid_arg "Events.set_capacity: capacity must be positive";
  Mutex.protect lock (fun () ->
      ring := Array.make n None;
      ring_next := 0;
      ring_stored := 0)

let reset () =
  Mutex.protect lock (fun () ->
      let a = !ring in
      Array.fill a 0 (Array.length a) None;
      ring_next := 0;
      ring_stored := 0)

(* Monotonic nanoseconds fit a float exactly up to 2^53 ≈ 104 days of
   uptime, so ts_ns survives the JSON round trip at full precision. *)
let to_json r =
  Json.Obj
    ([
       ("ts_ns", Json.Num (Int64.to_float r.e_ts_ns));
       ("dom", Json.Num (float_of_int r.e_dom));
       ("level", Json.Str (level_name r.e_level));
       ("event", Json.Str r.e_name);
     ]
    @ r.e_fields)

let render_jsonl ?(min_level = Debug) ?(since_ns = Int64.min_int) () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      if level_rank r.e_level >= level_rank min_level && Int64.compare r.e_ts_ns since_ns >= 0
      then begin
        Buffer.add_string buf (Json.to_string (to_json r));
        Buffer.add_char buf '\n'
      end)
    (records ());
  Buffer.contents buf

(* Human-readable lines: timestamps relative to the oldest record. *)
let render_text () =
  let rs = records () in
  match rs with
  | [] -> ""
  | first :: _ ->
      let t0 = first.e_ts_ns in
      let buf = Buffer.create 1024 in
      List.iter
        (fun r ->
          let ms = Int64.to_float (Int64.sub r.e_ts_ns t0) /. 1e6 in
          Buffer.add_string buf
            (Printf.sprintf "%10.3fms %-5s d%-2d %-32s" ms (level_name r.e_level) r.e_dom r.e_name);
          List.iter
            (fun (k, v) ->
              let rendered =
                match v with
                | Json.Str s -> s
                | other -> Json.to_string other
              in
              Buffer.add_string buf (Printf.sprintf " %s=%s" k rendered))
            r.e_fields;
          Buffer.add_char buf '\n')
        rs;
      Buffer.contents buf

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (render_jsonl ()))
