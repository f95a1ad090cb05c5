(* Load-vector traffic: [applies] are committed updates (one per realized
   task in the vector-greedy family), [compares] are hypothetical
   lexicographic comparisons — the dominant cost of VGH/EVG candidate
   selection (Sec. IV-D). *)
let c_applies = Obs.Metrics.counter "ds.loadvec.applies"
let c_compares = Obs.Metrics.counter "ds.loadvec.compares"

type t = {
  loads : float array;
  (* Comparison scratch: [ua] holds a's new values and b's old ones, [ub]
     b's new values and a's old ones. *)
  mutable ua : float array;
  mutable ub : float array;
}

type delta = { procs : int array; amounts : float array; mutable len : int }

let create p =
  if p < 0 then invalid_arg "Load_vector.create";
  { loads = Array.make p 0.0; ua = [||]; ub = [||] }

let size t = Array.length t.loads
let load t u = t.loads.(u)

let max_load t =
  let p = Array.length t.loads in
  if p = 0 then 0.0
  else begin
    let m = ref t.loads.(0) in
    for u = 1 to p - 1 do
      if t.loads.(u) > !m then m := t.loads.(u)
    done;
    !m
  end

let delta t = { procs = Array.make (size t) 0; amounts = Array.make (size t) 0.0; len = 0 }

let apply t ~procs ~w =
  Obs.Metrics.incr c_applies;
  for i = 0 to Array.length procs - 1 do
    let u = procs.(i) in
    t.loads.(u) <- t.loads.(u) +. w
  done

let add t ~proc ~w = apply t ~procs:[| proc |] ~w

let apply_delta t d =
  Obs.Metrics.incr c_applies;
  for i = 0 to d.len - 1 do
    let u = d.procs.(i) in
    t.loads.(u) <- t.loads.(u) +. d.amounts.(i)
  done

let desc a b = compare (b : float) a

let sorted_desc t =
  let v = Array.copy t.loads in
  Array.sort desc v;
  v

let hypothetical_sorted t d =
  let v = Array.copy t.loads in
  for i = 0 to d.len - 1 do
    let u = d.procs.(i) in
    v.(u) <- v.(u) +. d.amounts.(i)
  done;
  Array.sort desc v;
  v

(* Fill the scratch buffers with the values that decide the comparison and
   return how many each holds.  Loads outside both deltas are common to the
   two hypothetical vectors and cancel.  Deltas over one [procs] array also
   share their old values, and a processor both move to the same value
   cancels too.  Over different arrays an amount of 0.0 puts the same load
   on both sides, and cancels as well. *)
let fill t a b =
  let cap = a.len + b.len in
  if Array.length t.ua < cap then begin
    t.ua <- Array.make cap 0.0;
    t.ub <- Array.make cap 0.0
  end;
  let ua = t.ua and ub = t.ub in
  if a.procs == b.procs && a.len = b.len then begin
    let n = ref 0 in
    for i = 0 to a.len - 1 do
      let l = t.loads.(a.procs.(i)) in
      let x = l +. a.amounts.(i) and y = l +. b.amounts.(i) in
      if x <> y then begin
        ua.(!n) <- x;
        ub.(!n) <- y;
        incr n
      end
    done;
    !n
  end
  else begin
    let n = ref 0 in
    for i = 0 to a.len - 1 do
      let x = a.amounts.(i) in
      if x <> 0.0 then begin
        let l = t.loads.(a.procs.(i)) in
        ua.(!n) <- l +. x;
        ub.(!n) <- l;
        incr n
      end
    done;
    for i = 0 to b.len - 1 do
      let y = b.amounts.(i) in
      if y <> 0.0 then begin
        let l = t.loads.(b.procs.(i)) in
        ua.(!n) <- l;
        ub.(!n) <- l +. y;
        incr n
      end
    done;
    !n
  end

(* Compare the descending orders of ua.(0 .. n-1) and ub.(0 .. n-1) by
   repeatedly taking the largest value out of each: the first pair that
   differs decides, usually within a step or two, and equal pairs leave
   (swapped with the last entry). *)
let compare_desc (ua : float array) (ub : float array) n =
  let n = ref n and r = ref 0 in
  while !r = 0 && !n > 0 do
    let ia = ref 0 and ib = ref 0 in
    for i = 1 to !n - 1 do
      if ua.(i) > ua.(!ia) then ia := i;
      if ub.(i) > ub.(!ib) then ib := i
    done;
    let x = ua.(!ia) and y = ub.(!ib) in
    if x < y then r := -1
    else if x > y then r := 1
    else begin
      decr n;
      ua.(!ia) <- ua.(!n);
      ub.(!ib) <- ub.(!n)
    end
  done;
  !r

let compare_hypothetical t a b =
  Obs.Metrics.incr c_compares;
  let n = fill t a b in
  compare_desc t.ua t.ub n
