module H = Hyper.Graph
module J = Obs.Json
module Repair = Semimatch.Repair
module Deadline = Semimatch.Deadline

type entry = { tid : int; configs : Protocol.config array; mutable chosen : int }
(* [chosen] indexes [configs]; -1 = unplaced (no surviving configuration). *)

type t = {
  id : string;
  n2 : int;
  dead : bool array;
  mutable next_tid : int;
  mutable entries : entry array;  (* insertion order: the graph task order *)
  mutable cache : H.t option;  (* invalidated when the task set changes *)
}

let id t = t.id
let n_tasks t = Array.length t.entries
let n_procs t = t.n2
let dead_procs t = Array.fold_left (fun n d -> if d then n + 1 else n) 0 t.dead

let unplaced t =
  List.filter_map
    (fun e -> if e.chosen < 0 then Some e.tid else None)
    (Array.to_list t.entries)

(* Processor loads of the placed entries, summed in entry order: the order
   a from-scratch sum over the session graph adds them in, so placement
   sees bit-identical loads whatever the weights. *)
let loads t =
  let loads = Array.make t.n2 0.0 in
  Array.iter
    (fun e ->
      if e.chosen >= 0 then begin
        let c = e.configs.(e.chosen) in
        Array.iter (fun u -> loads.(u) <- loads.(u) +. c.Protocol.weight) c.Protocol.procs
      end)
    t.entries;
  loads

let makespan t = Array.fold_left Float.max 0.0 (loads t)

(* Task [i] of the graph is [entries.(i)] with its configurations in entry
   order, so config [k] of entry [i] is hyperedge [task_off.(i) + k]. *)
let graph_of n2 entries =
  let hyperedges = ref 0 and pins = ref 0 in
  Array.iter
    (fun e ->
      hyperedges := !hyperedges + Array.length e.configs;
      Array.iter (fun c -> pins := !pins + Array.length c.Protocol.procs) e.configs)
    entries;
  let b = H.builder ~n1:(Array.length entries) ~n2 ~hyperedges:!hyperedges ~pins:!pins in
  Array.iteri
    (fun i e ->
      Array.iter
        (fun c -> H.add b ~task:i ~procs:c.Protocol.procs ~weight:c.Protocol.weight)
        e.configs)
    entries;
  H.build b

let graph t =
  match t.cache with
  | Some h -> h
  | None ->
      let h = graph_of t.n2 t.entries in
      t.cache <- Some h;
      h

(* [h] is [graph_of _ entries]; [choice] holds one hyperedge id per task. *)
let write_back entries h choice =
  Array.iteri
    (fun i e -> e.chosen <- (if choice.(i) < 0 then -1 else choice.(i) - h.H.task_off.(i)))
    entries

let count_unplaced entries = Array.fold_left (fun n e -> if e.chosen < 0 then n + 1 else n) 0 entries

type placed = { affected : int; moved : int; unplaced : int }

(* (Re-)place exactly the [listed] entries (ascending) against the loads of
   the others: only their graph is built. *)
let place t listed =
  Array.iter (fun e -> e.chosen <- -1) listed;
  let h = graph_of t.n2 listed in
  write_back listed h (Repair.place ~dead:t.dead ~loads:(loads t) h);
  let n = Array.length listed in
  { affected = n; moved = n - count_unplaced listed; unplaced = count_unplaced t.entries }

let of_graph ~id h =
  let entries =
    Array.init h.H.n1 (fun v ->
        let configs =
          Array.init (H.task_degree h v) (fun k ->
              let e = h.H.task_off.(v) + k in
              { Protocol.procs = H.h_procs h e; weight = H.h_weight h e })
        in
        { tid = v; configs; chosen = -1 })
  in
  let t =
    { id; n2 = h.H.n2; dead = Array.make h.H.n2 false; next_tid = h.H.n1; entries; cache = None }
  in
  (t, place t entries)

let lower_bound t = Repair.lower_bound ~dead:t.dead (graph t)

let index_of t tid =
  let found = ref (-1) in
  Array.iteri (fun i e -> if e.tid = tid then found := i) t.entries;
  !found

let validate_config t (c : Protocol.config) =
  if Array.length c.Protocol.procs = 0 then Error "config has an empty processor set"
  else if not (Float.is_finite c.Protocol.weight && c.Protocol.weight > 0.0) then
    Error "config weight must be a positive finite number"
  else begin
    let seen = Hashtbl.create 8 in
    let bad = ref None in
    Array.iter
      (fun u ->
        if u < 0 || u >= t.n2 then bad := Some (Printf.sprintf "processor %d out of range" u)
        else if Hashtbl.mem seen u then bad := Some (Printf.sprintf "duplicate processor %d" u)
        else Hashtbl.add seen u ())
      c.Protocol.procs;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

let add_tasks t configs_list =
  let bad = ref None in
  List.iter
    (fun configs ->
      List.iter
        (fun c -> match validate_config t c with Ok () -> () | Error m -> bad := Some m)
        configs)
    configs_list;
  match !bad with
  | Some msg -> Error msg
  | None ->
      let fresh =
        Array.of_list
          (List.map
             (fun configs ->
               let tid = t.next_tid in
               t.next_tid <- tid + 1;
               { tid; configs = Array.of_list configs; chosen = -1 })
             configs_list)
      in
      t.entries <- Array.append t.entries fresh;
      t.cache <- None;
      let p = place t fresh in
      Ok (Array.to_list (Array.map (fun e -> e.tid) fresh), p)

let remove_task t tid =
  let i = index_of t tid in
  if i < 0 then Error (Printf.sprintf "unknown task %d" tid)
  else begin
    t.entries <- Array.append (Array.sub t.entries 0 i)
        (Array.sub t.entries (i + 1) (Array.length t.entries - i - 1));
    t.cache <- None;
    Ok (makespan t)
  end

let kill_proc t proc =
  if proc < 0 || proc >= t.n2 then Error (Printf.sprintf "processor %d out of range" proc)
  else begin
    t.dead.(proc) <- true;
    (* Re-place the tasks whose chosen configuration touched the dead
       processor, and retry the already-unplaced ones (they stay
       infeasible, but are re-reported under the new mask). *)
    let touched e =
      e.chosen < 0 || Array.mem proc e.configs.(e.chosen).Protocol.procs
    in
    Ok (place t (Array.of_list (List.filter touched (Array.to_list t.entries))))
  end

let resolve ?jobs ~budget_s t =
  let h = graph t in
  let d = Deadline.solve_surviving ?jobs ~dead:t.dead ~budget_s h in
  let replaced = d.Deadline.d_makespan < makespan t in
  if replaced then write_back t.entries h d.Deadline.d_choice;
  (d, replaced)

let solve ?jobs t =
  let h = graph t in
  let d = Deadline.solve_surviving ?jobs ~dead:t.dead ~budget_s:1e9 h in
  write_back t.entries h d.Deadline.d_choice;
  d

(* The first task pinned on a processor recorded dead.  A live session never
   has one (kill_proc re-places the affected tasks), and restore rejects a
   state that does. *)
let placed_on_dead t =
  let bad = ref None in
  Array.iter
    (fun e ->
      if e.chosen >= 0 then
        Array.iter
          (fun u ->
            if t.dead.(u) && !bad = None then
              bad := Some (Printf.sprintf "task %d placed on dead processor %d" e.tid u))
          e.configs.(e.chosen).Protocol.procs)
    t.entries;
  !bad

let verify t =
  match placed_on_dead t with
  | Some msg -> Error msg
  | None -> if Float.is_finite (makespan t) then Ok () else Error "non-finite makespan"

(* --- snapshot / restore: the instance rides through Hyper.Io text --- *)

let format_tag = "semimatch.session/1"

(* The bare instance as Hyper.Io text — what a diagnostic bundle embeds as
   [instance.hg] so [semimatch doctor] can replay the captured instance
   through the solvers without understanding session state. *)
let instance_text t = Hyper.Io.to_string (graph t)

let snapshot t =
  let h = graph t in
  J.Obj
    [
      ("format", J.Str format_tag);
      ("instance", J.Str (Hyper.Io.to_string h));
      ("tids", J.List (Array.to_list (Array.map (fun e -> J.Num (float_of_int e.tid)) t.entries)));
      ( "chosen",
        J.List (Array.to_list (Array.map (fun e -> J.Num (float_of_int e.chosen)) t.entries)) );
      ( "dead",
        J.List
          (List.filter_map
             (fun u -> if t.dead.(u) then Some (J.Num (float_of_int u)) else None)
             (List.init t.n2 Fun.id)) );
      ("next_tid", J.Num (float_of_int t.next_tid));
    ]

let int_list_of = function
  | J.List l ->
      let ints =
        List.filter_map
          (function J.Num f when Float.is_integer f && Float.abs f < 1e9 -> Some (int_of_float f) | _ -> None)
          l
      in
      if List.length ints = List.length l then Some ints else None
  | _ -> None

let restore ~id state =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let field name decode =
    match Option.bind (J.member name state) decode with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing or malformed %S" name)
  in
  let* tag = field "format" J.to_str in
  let* () = if tag = format_tag then Ok () else Error ("snapshot: unknown format " ^ tag) in
  let* text = field "instance" J.to_str in
  let* h =
    match Hyper.Io.of_string text with
    | h -> Ok h
    | exception Failure msg -> Error msg
    | exception Invalid_argument msg -> Error ("invalid instance: " ^ msg)
  in
  let* tids = field "tids" int_list_of in
  let* chosen = field "chosen" int_list_of in
  let* dead_ids = field "dead" int_list_of in
  let* next_tid = field "next_tid" (fun j -> Option.bind (int_list_of (J.List [ j ])) (function [ n ] -> Some n | _ -> None)) in
  let n1 = h.H.n1 in
  let* () =
    if List.length tids = n1 && List.length chosen = n1 then Ok ()
    else Error "snapshot: tids/chosen length mismatch"
  in
  let* () =
    if List.length (List.sort_uniq compare tids) = n1 then Ok ()
    else Error "snapshot: duplicate tids"
  in
  let* () =
    if List.for_all (fun tid -> tid >= 0 && tid < next_tid) tids then Ok ()
    else Error "snapshot: tid out of range"
  in
  let* () =
    if List.for_all (fun u -> u >= 0 && u < h.H.n2) dead_ids then Ok ()
    else Error "snapshot: dead processor out of range"
  in
  let tids = Array.of_list tids and chosen = Array.of_list chosen in
  let* () =
    let ok = ref true in
    Array.iteri (fun i c -> if c < -1 || c >= H.task_degree h i then ok := false) chosen;
    if !ok then Ok () else Error "snapshot: chosen configuration out of range"
  in
  let dead = Array.make h.H.n2 false in
  List.iter (fun u -> dead.(u) <- true) dead_ids;
  let entries =
    Array.init n1 (fun i ->
        let configs =
          Array.init (H.task_degree h i) (fun k ->
              let e = h.H.task_off.(i) + k in
              { Protocol.procs = H.h_procs h e; weight = H.h_weight h e })
        in
        { tid = tids.(i); configs; chosen = chosen.(i) })
  in
  let t = { id; n2 = h.H.n2; dead; next_tid; entries; cache = Some h } in
  match placed_on_dead t with Some msg -> Error msg | None -> Ok t
