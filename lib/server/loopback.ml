(* In-process transport: the full protocol without sockets or process
   management, so tests can drive the engine deterministically.  Replies
   accumulate in post order and are handed out by [drain]. *)

type t = { engine : Engine.t; mutable acc : string list (* newest first *) }

let create engine = { engine; acc = [] }
let engine t = t.engine
let shutting_down t = Engine.shutting_down t.engine

let post t line = Engine.post t.engine ~reply:(fun r -> t.acc <- r :: t.acc) line

let drain t =
  Engine.drain t.engine;
  let replies = List.rev t.acc in
  t.acc <- [];
  replies

let request t line =
  post t line;
  match drain t with
  | [ reply ] -> reply
  | replies ->
      invalid_arg
        (Printf.sprintf "Loopback.request: expected one reply, got %d" (List.length replies))
