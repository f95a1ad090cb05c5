type t = {
  flag : bool Atomic.t;
  deadline : int64 option; (* monotonic ns *)
  inert : bool; (* the [never] token ignores [cancel] *)
}

let create ?timeout_s () =
  match timeout_s with
  | Some s when not (s > 0.0) -> { flag = Atomic.make true; deadline = None; inert = false }
  | _ ->
      let deadline = Option.bind timeout_s Obs.Span.deadline_after in
      { flag = Atomic.make false; deadline; inert = false }

let never = { flag = Atomic.make false; deadline = None; inert = true }

let cancel t = if not t.inert then Atomic.set t.flag true

let is_cancelled t =
  Atomic.get t.flag
  || match t.deadline with None -> false | Some d -> Obs.Span.now_ns () >= d
