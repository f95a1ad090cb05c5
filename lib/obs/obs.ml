module Metrics = Metrics
module Span = Span
module Events = Events
module Trace = Trace
module Sink = Sink
module Json = Json
module Prom = Prom
module Runtime = Runtime
module Manifest = Manifest
module Recorder = Recorder
module Anomaly = Anomaly

let set_enabled b = Config.enabled := b
let is_enabled () = !Config.enabled

let reset () =
  Metrics.reset_all ();
  Span.reset ();
  Events.reset ()

let with_recording f =
  let was = !Config.enabled in
  Config.enabled := true;
  reset ();
  Fun.protect ~finally:(fun () -> Config.enabled := was) f
