(* OCaml 5 runtime-event correlation: subscribe to the runtime's own event
   ring (minor/major GC phases, domain lifecycle) and replay it into the
   Span ring, so GC pauses appear in the Chrome trace as dedicated tracks
   alongside engine/pool spans.

   Self-monitoring: [start] enables [Runtime_events] for this process and
   opens a cursor on its own ring; a host loop (the daemon, a bench driver)
   calls [poll] periodically to drain pending events.  Matching begin/end
   pairs become completed spans named ["gc.<phase>"], lifecycle events
   become instants named ["runtime.<event>"].  Both are recorded with
   [dom = track_offset + ring id], a range no real domain id reaches, which
   is how [Trace] knows to render them as "gc-ring-N" tracks instead of
   "domain-N" ones.  Runtime timestamps share the span clock's monotonic
   domain, so GC spans interleave correctly with request spans.

   Only the coarse phases are kept (whole minor/major collections, major
   slices, explicit GC calls, the stop-the-world leader) — the runtime emits
   dozens of sub-phases per collection and replaying them all would flush
   the span ring with noise. *)

module RE = Runtime_events

let track_offset = 1_000_000

let c_events = Metrics.counter "runtime.gc_events"
let c_lost = Metrics.counter "runtime.lost_events"

let keep_phase = function
  | "minor" | "major" | "major_slice" | "explicit_gc_minor" | "explicit_gc_major"
  | "explicit_gc_full_major" | "stw_leader" ->
      true
  | _ -> false

(* Whole collections sit at depth 0; slices and STW sections nest under the
   major span when one is open. *)
let depth_of = function "minor" | "major" -> 0 | _ -> 1

(* In-flight begin timestamps, keyed by (ring id, phase name).  Polling
   happens on one thread, so no lock is needed. *)
let in_flight : (int * string, int64) Hashtbl.t = Hashtbl.create 32

let on_begin ring ts phase =
  let name = RE.runtime_phase_name phase in
  if keep_phase name then Hashtbl.replace in_flight (ring, name) (RE.Timestamp.to_int64 ts)

let on_end ring ts phase =
  let name = RE.runtime_phase_name phase in
  if keep_phase name then
    match Hashtbl.find_opt in_flight (ring, name) with
    | None -> () (* begin predates the cursor; drop the torn span *)
    | Some start_ns ->
        Hashtbl.remove in_flight (ring, name);
        if !Config.enabled then begin
          Metrics.incr c_events;
          Span.push_record
            {
              Span.r_name = "gc." ^ name;
              start_ns;
              stop_ns = RE.Timestamp.to_int64 ts;
              depth = depth_of name;
              dom = track_offset + ring;
              flow = 0;
            }
            true
        end

let on_lifecycle ring ts lifecycle _arg =
  if !Config.enabled then begin
    let now = RE.Timestamp.to_int64 ts in
    Span.push_record
      {
        Span.r_name = "runtime." ^ RE.lifecycle_name lifecycle;
        start_ns = now;
        stop_ns = now;
        depth = 0;
        dom = track_offset + ring;
        flow = 0;
      }
      false
  end

let on_lost _ring n = Metrics.add c_lost n

type state = { cursor : RE.cursor; callbacks : RE.Callbacks.t }

let state : state option ref = ref None

let started () = !state <> None

let start () =
  if !state = None then begin
    RE.start ();
    let cursor = RE.create_cursor None in
    let callbacks =
      RE.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end ~lifecycle:on_lifecycle
        ~lost_events:on_lost ()
    in
    state := Some { cursor; callbacks }
  end

let poll () =
  match !state with
  | None -> 0
  | Some { cursor; callbacks } -> ( try RE.read_poll cursor callbacks None with Failure _ -> 0)

let stop () =
  match !state with
  | None -> ()
  | Some { cursor; _ } ->
      ignore (poll ());
      (try RE.free_cursor cursor with Failure _ -> ());
      Hashtbl.reset in_flight;
      state := None
