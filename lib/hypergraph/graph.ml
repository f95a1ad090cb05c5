type t = {
  n1 : int;
  n2 : int;
  task_off : int array;
  h_off : int array;
  h_adj : int array;
  w : float array;
}

(* {2 Sized builder}

   Every constructor goes through one builder: pins are appended to the
   hyperedge under construction, and [end_hyperedge] closes it with its task
   and weight.  The arrays are sized up front from the caller's counts, so
   exact counts mean [build] allocates nothing but the final CSR arrays
   (which it shares with the builder).  More input grows them; less is
   trimmed at [build].

   Validation runs per hyperedge, in input order, but a failure is only
   recorded: [build] raises the first one.  That lets the text parser finish
   its scan first, so a line-numbered syntax error anywhere in a file wins
   over a semantic error on an earlier line.

   Task grouping: [b_count] counts hyperedges per task (it becomes
   [task_off] at [build]).  While tasks arrive in nondecreasing order the
   hyperedges are already grouped and no per-hyperedge task is stored; the
   first out-of-order task switches to [b_tasks], rebuilt for the hyperedges
   so far from the counts, and [build] regroups with a stable counting
   sort. *)

type builder = {
  b_n1 : int;
  b_n2 : int;
  b_count : int array;
  mutable b_off : int array;  (* hyperedge e owns b_adj.(b_off.(e) .. b_off.(e+1) - 1) *)
  mutable b_adj : int array;
  mutable b_w : float array;
  mutable b_nh : int;
  mutable b_np : int;
  mutable b_grouped : bool;
  mutable b_tasks : int array;  (* task per hyperedge, once not grouped *)
  mutable b_last : int;  (* task of the previous hyperedge *)
  mutable b_error : string option;  (* first validation failure *)
  mutable b_built : bool;
}

let builder ~n1 ~n2 ~hyperedges ~pins =
  if n1 < 0 || n2 < 0 then invalid_arg "Hyper.Graph.create: negative size";
  let hyperedges = max 0 hyperedges in
  {
    b_n1 = n1;
    b_n2 = n2;
    b_count = Array.make (n1 + 1) 0;
    b_off = Array.make (hyperedges + 1) 0;
    b_adj = Array.make (max 0 pins) 0;
    b_w = Array.make hyperedges 0.0;
    b_nh = 0;
    b_np = 0;
    b_grouped = true;
    b_tasks = [||];
    b_last = 0;
    b_error = None;
    b_built = false;
  }

let check_open b = if b.b_built then invalid_arg "Hyper.Graph: builder used after build"

let grow_pins b =
  let a = Array.make (max 8 (2 * b.b_np)) 0 in
  Array.blit b.b_adj 0 a 0 b.b_np;
  b.b_adj <- a

let[@inline] add_pin b u =
  check_open b;
  if b.b_np = Array.length b.b_adj then grow_pins b;
  Array.unsafe_set b.b_adj b.b_np u;
  b.b_np <- b.b_np + 1

let task_out_of_range = Some "Hyper.Graph: task out of range"
let weight_not_positive = Some "Hyper.Graph: weight must be positive"
let empty_config = Some "Hyper.Graph: empty processor set"
let out_of_range = Some "Hyper.Graph: processor out of range"
let duplicate = Some "Hyper.Graph: duplicate processor in hyperedge"

(* Above this size a configuration's duplicate check uses a hash table
   instead of the pairwise scan.  Never an array of n2 stamps: a 25-byte
   header may name n2 = 1e8. *)
let small_config = 32

(* Typed, so the comparison is an integer compare, not [caml_equal]. *)
let rec occurs (adj : int array) lo hi (u : int) =
  lo < hi && (adj.(lo) = u || occurs adj (lo + 1) hi u)

(* The first bad pin of adj.(pos .. stop - 1) in order: out of range, or a
   repeat of an earlier pin. *)
let rec check_small ~n2 (adj : int array) pos i stop =
  if i = stop then None
  else
    let u = adj.(i) in
    if u < 0 || u >= n2 then out_of_range
    else if occurs adj pos i u then duplicate
    else check_small ~n2 adj pos (i + 1) stop

let check_large ~n2 (adj : int array) pos stop =
  let seen = Hashtbl.create (stop - pos) in
  let rec go i =
    if i = stop then None
    else
      let u = adj.(i) in
      if u < 0 || u >= n2 then out_of_range
      else if Hashtbl.mem seen u then duplicate
      else begin
        Hashtbl.add seen u ();
        go (i + 1)
      end
  in
  go pos

let grow_hyperedges b =
  let cap = max 8 (2 * b.b_nh) in
  let off = Array.make (cap + 1) 0 and w = Array.make cap 0.0 in
  Array.blit b.b_off 0 off 0 (b.b_nh + 1);
  Array.blit b.b_w 0 w 0 b.b_nh;
  b.b_off <- off;
  b.b_w <- w;
  if not b.b_grouped then begin
    let tasks = Array.make cap 0 in
    Array.blit b.b_tasks 0 tasks 0 b.b_nh;
    b.b_tasks <- tasks
  end

(* The hyperedges so far arrived in nondecreasing task order, so the counts
   alone give each one's task. *)
let ungroup b =
  let tasks = Array.make (Array.length b.b_w) 0 in
  let e = ref 0 in
  for v = 0 to b.b_n1 - 1 do
    Array.fill tasks !e b.b_count.(v + 1) v;
    e := !e + b.b_count.(v + 1)
  done;
  b.b_tasks <- tasks;
  b.b_grouped <- false

(* Once invalid, the graph is never built: keep the first failure, drop the
   pins. *)
let drop_pins b = b.b_np <- b.b_off.(b.b_nh)

let reject b error =
  b.b_error <- error;
  drop_pins b

(* Close the hyperedge under construction, whose task and weight the caller
   has checked: check its pins, then append it.  Its slot, where the caller
   stores the weight, or -1 when a pin is bad. *)
let close b task =
  let pos = b.b_off.(b.b_nh) and stop = b.b_np in
  let error =
    if pos = stop then empty_config
    else if stop - pos <= small_config then check_small ~n2:b.b_n2 b.b_adj pos pos stop
    else check_large ~n2:b.b_n2 b.b_adj pos stop
  in
  match error with
  | Some _ ->
      reject b error;
      -1
  | None ->
      let e = b.b_nh in
      if e = Array.length b.b_w then grow_hyperedges b;
      if b.b_grouped && task < b.b_last then ungroup b;
      if not b.b_grouped then b.b_tasks.(e) <- task;
      b.b_last <- task;
      b.b_count.(task + 1) <- b.b_count.(task + 1) + 1;
      b.b_off.(e + 1) <- stop;
      b.b_nh <- e + 1;
      e

(* Small enough to inline, and the weight goes only into a float array: a
   caller whose weight is an unboxed local passes it without boxing. *)
let[@inline] end_hyperedge b ~task ~weight =
  check_open b;
  if Option.is_some b.b_error then drop_pins b
  else if task < 0 || task >= b.b_n1 then reject b task_out_of_range
  else if not (weight > 0.0) then reject b weight_not_positive
  else
    let e = close b task in
    if e >= 0 then Array.unsafe_set b.b_w e weight

let add b ~task ~procs ~weight =
  for i = 0 to Array.length procs - 1 do
    add_pin b procs.(i)
  done;
  end_hyperedge b ~task ~weight

(* hg_stubs.c: the builder's state, written in place.  [counters] carries
   [b_nh], [b_np] and [b_last] in and out. *)
external canonical_lines :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  int array ->
  int array ->
  int array ->
  int array ->
  float array ->
  int array ->
  (int[@untagged]) = "semimatch_hg_lines_bytecode" "semimatch_hg_lines"
[@@noalloc]

let add_canonical_lines b text pos =
  check_open b;
  if pos < 0 || pos > String.length text then invalid_arg "Hyper.Graph.add_canonical_lines";
  if Option.is_some b.b_error then pos
  else begin
    let counters = [| b.b_nh; b.b_np; b.b_last |] in
    let next =
      canonical_lines text pos b.b_n2 (Bool.to_int b.b_grouped) counters b.b_count b.b_off b.b_adj b.b_w
        b.b_tasks
    in
    b.b_nh <- counters.(0);
    b.b_np <- counters.(1);
    b.b_last <- counters.(2);
    next
  end

let fit a n = if Array.length a = n then a else Array.sub a 0 n

let build b =
  check_open b;
  b.b_built <- true;
  Option.iter invalid_arg b.b_error;
  let n1 = b.b_n1 and nh = b.b_nh in
  let task_off = b.b_count in
  for v = 1 to n1 do
    task_off.(v) <- task_off.(v) + task_off.(v - 1)
  done;
  if b.b_grouped then
    { n1; n2 = b.b_n2; task_off; h_off = fit b.b_off (nh + 1); h_adj = fit b.b_adj b.b_np; w = fit b.b_w nh }
  else begin
    (* Stable counting sort by task: hyperedge e moves to slot.(e). *)
    let cursor = Array.sub task_off 0 n1 in
    let slot =
      Array.init nh (fun e ->
          let v = b.b_tasks.(e) in
          let s = cursor.(v) in
          cursor.(v) <- s + 1;
          s)
    in
    let size e = b.b_off.(e + 1) - b.b_off.(e) in
    let h_off = Array.make (nh + 1) 0 and w = Array.make nh 0.0 in
    for e = 0 to nh - 1 do
      h_off.(slot.(e) + 1) <- size e;
      w.(slot.(e)) <- b.b_w.(e)
    done;
    for s = 1 to nh do
      h_off.(s) <- h_off.(s) + h_off.(s - 1)
    done;
    let h_adj = Array.make b.b_np 0 in
    for e = 0 to nh - 1 do
      Array.blit b.b_adj b.b_off.(e) h_adj h_off.(slot.(e)) (size e)
    done;
    { n1; n2 = b.b_n2; task_off; h_off; h_adj; w }
  end

let create ~n1 ~n2 ~hyperedges =
  let pins = List.fold_left (fun acc (_, procs, _) -> acc + Array.length procs) 0 hyperedges in
  let b = builder ~n1 ~n2 ~hyperedges:(List.length hyperedges) ~pins in
  List.iter (fun (task, procs, weight) -> add b ~task ~procs ~weight) hyperedges;
  build b

let num_hyperedges h = Array.length h.w
let num_pins h = Array.length h.h_adj
let task_degree h v = h.task_off.(v + 1) - h.task_off.(v)

let max_task_degree h =
  let best = ref 0 in
  for v = 0 to h.n1 - 1 do
    if task_degree h v > !best then best := task_degree h v
  done;
  !best

let iter_task_hyperedges h v f =
  for e = h.task_off.(v) to h.task_off.(v + 1) - 1 do
    f e
  done

let h_task h e =
  (* Hyperedges are grouped by task: binary search the owning range. *)
  let lo = ref 0 and hi = ref (h.n1 - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.task_off.(mid + 1) <= e then lo := mid + 1 else hi := mid
  done;
  !lo

let h_size h e = h.h_off.(e + 1) - h.h_off.(e)
let h_weight h e = h.w.(e)

let iter_h_procs h e f =
  for i = h.h_off.(e) to h.h_off.(e + 1) - 1 do
    f h.h_adj.(i)
  done

let h_procs h e = Array.sub h.h_adj h.h_off.(e) (h_size h e)

let with_weights h weights =
  if Array.length weights <> num_hyperedges h then
    invalid_arg "Hyper.Graph.with_weights: length mismatch";
  Array.iter (fun x -> if not (x > 0.0) then invalid_arg "Hyper.Graph.with_weights: weight must be positive") weights;
  { h with w = Array.copy weights }

let has_isolated_task h =
  let rec scan v = v < h.n1 && (task_degree h v = 0 || scan (v + 1)) in
  scan 0

(* Both directions share the CSR arrays: a bipartite edge list grouped by
   task is exactly a singleton hyperedge list grouped by task. *)
let of_bipartite g =
  let module B = Bipartite.Graph in
  {
    n1 = g.B.n1;
    n2 = g.B.n2;
    task_off = g.B.off;
    h_off = Array.init (B.num_edges g + 1) Fun.id;
    h_adj = g.B.adj;
    w = g.B.w;
  }

(* Every configuration is non-empty, so all are singletons iff there are as
   many pins as hyperedges.  Hyperedge e of task v is then bipartite edge e,
   (v, its one processor) — callers rely on that to map assignments back. *)
let to_bipartite h =
  if num_pins h <> num_hyperedges h then None
  else Some (Bipartite.Graph.of_csr ~n1:h.n1 ~n2:h.n2 ~off:h.task_off ~adj:h.h_adj ~w:h.w)

let min_max_h_size h =
  let nh = num_hyperedges h in
  if nh = 0 then invalid_arg "Hyper.Graph.min_max_h_size: no hyperedges";
  let mn = ref max_int and mx = ref 0 in
  for e = 0 to nh - 1 do
    let s = h_size h e in
    if s < !mn then mn := s;
    if s > !mx then mx := s
  done;
  (!mn, !mx)

let pp ppf h =
  Format.fprintf ppf "hypergraph: |V1|=%d |V2|=%d |N|=%d pins=%d" h.n1 h.n2 (num_hyperedges h)
    (num_pins h)
