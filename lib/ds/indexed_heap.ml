(* Heap traffic counters: the simulator's event queue and every heap-backed
   solver go through here, so these totals are the "heap operations" column
   of telemetry reports. *)
let c_inserts = Obs.Metrics.counter "ds.heap.inserts"
let c_pops = Obs.Metrics.counter "ds.heap.pops"
let c_updates = Obs.Metrics.counter "ds.heap.updates"

type t = {
  keys : int array; (* heap slots -> key *)
  prio : float array; (* indexed by key *)
  pos : int array; (* key -> heap slot, or -1 when absent *)
  mutable len : int;
}

let create n =
  if n < 0 then invalid_arg "Indexed_heap.create";
  { keys = Array.make (max n 1) (-1); prio = Array.make (max n 1) 0.0; pos = Array.make (max n 1) (-1); len = 0 }

let length t = t.len

let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  t.keys.(i) <- kj;
  t.keys.(j) <- ki;
  t.pos.(kj) <- i;
  t.pos.(ki) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(t.keys.(i)) < t.prio.(t.keys.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.prio.(t.keys.(l)) < t.prio.(t.keys.(!smallest)) then smallest := l;
  if r < t.len && t.prio.(t.keys.(r)) < t.prio.(t.keys.(!smallest)) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let insert t key p =
  if key < 0 || key >= Array.length t.pos then invalid_arg "Indexed_heap.insert: key out of range";
  if t.pos.(key) >= 0 then invalid_arg "Indexed_heap.insert: key already present";
  Obs.Metrics.incr c_inserts;
  let i = t.len in
  t.keys.(i) <- key;
  t.pos.(key) <- i;
  t.prio.(key) <- p;
  t.len <- t.len + 1;
  sift_up t i

let update t key p =
  if not (mem t key) then invalid_arg "Indexed_heap.update: key absent";
  Obs.Metrics.incr c_updates;
  let old = t.prio.(key) in
  t.prio.(key) <- p;
  let i = t.pos.(key) in
  if p < old then sift_up t i else sift_down t i

let min t = if t.len = 0 then None else Some (t.keys.(0), t.prio.(t.keys.(0)))

let pop_min t =
  if t.len = 0 then None
  else begin
    Obs.Metrics.incr c_pops;
    let key = t.keys.(0) in
    let p = t.prio.(key) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      let last = t.keys.(t.len) in
      t.keys.(0) <- last;
      t.pos.(last) <- 0
    end;
    t.pos.(key) <- -1;
    if t.len > 0 then sift_down t 0;
    Some (key, p)
  end
