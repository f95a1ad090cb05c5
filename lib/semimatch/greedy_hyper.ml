module H = Hyper.Graph
module Lv = Ds.Load_vector

(* Probe points shared by the four greedy variants: [candidates] counts
   configuration evaluations (the outer work term), [pin_scans] the
   processor touches inside them (the inner term ~ sum of |h∩V2| over
   evaluated h).  Every greedy evaluates each hyperedge once and realizes
   each task once, so a run adds its totals in bulk: [candidates] = the
   hyperedges, [realized] = the tasks and, for SGH and EGH, [pin_scans] =
   the pins.  Load-vector traffic of VGH/EVG lands in ds.loadvec.*. *)
let c_candidates = Obs.Metrics.counter "semimatch.greedy.candidates"
let c_pin_scans = Obs.Metrics.counter "semimatch.greedy.pin_scans"
let c_realized = Obs.Metrics.counter "semimatch.greedy.realized"

type algorithm =
  | Sorted_greedy_hyp
  | Expected_greedy_hyp
  | Vector_greedy_hyp
  | Expected_vector_greedy_hyp

type vector_variant = Naive | Merged

let all = [ Sorted_greedy_hyp; Expected_greedy_hyp; Vector_greedy_hyp; Expected_vector_greedy_hyp ]

let name = function
  | Sorted_greedy_hyp -> "sorted-greedy-hyp"
  | Expected_greedy_hyp -> "expected-greedy-hyp"
  | Vector_greedy_hyp -> "vector-greedy-hyp"
  | Expected_vector_greedy_hyp -> "expected-vector-greedy-hyp"

let short_name = function
  | Sorted_greedy_hyp -> "SGH"
  | Expected_greedy_hyp -> "EGH"
  | Vector_greedy_hyp -> "VGH"
  | Expected_vector_greedy_hyp -> "EVG"

let check h =
  if H.has_isolated_task h then invalid_arg "Greedy_hyper: task with no configuration"

let degree_order h =
  Ds.Counting_sort.permutation ~n:h.H.n1 ~key:(fun v -> H.task_degree h v)
    ~max_key:(max 1 (H.max_task_degree h))

let count_run h ~pin_scans =
  Obs.Metrics.add c_candidates (H.num_hyperedges h);
  if pin_scans then Obs.Metrics.add c_pin_scans (H.num_pins h);
  Obs.Metrics.add c_realized h.H.n1

(* Algorithm 4.  The bottleneck of realizing h is max_{u∈h}(l(u) + w_h);
   on unit weights this order coincides with the paper's max l(u). *)
let run_sorted h =
  let { H.task_off; h_off; h_adj; w; _ } = h in
  let l = Array.make h.H.n2 0.0 in
  let choice = Array.make h.H.n1 (-1) in
  let order = degree_order h in
  for k = 0 to h.H.n1 - 1 do
    let v = order.(k) in
    let best = ref (-1) and best_key = ref infinity in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let bottleneck = ref 0.0 in
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        let x = l.(h_adj.(i)) in
        if x > !bottleneck then bottleneck := x
      done;
      let key = !bottleneck +. w.(e) in
      if key < !best_key then begin
        best := e;
        best_key := key
      end
    done;
    let e = !best in
    choice.(v) <- e;
    let we = w.(e) in
    for i = h_off.(e) to h_off.(e + 1) - 1 do
      let u = h_adj.(i) in
      l.(u) <- l.(u) +. we
    done
  done;
  count_run h ~pin_scans:true;
  choice

(* The expected load o(u) = Σ w_h/d_v over every configuration h ∋ u, as
   Algorithm 5 starts. *)
let initial_expectations h =
  let { H.task_off; h_off; h_adj; w; _ } = h in
  let o = Array.make h.H.n2 0.0 in
  for v = 0 to h.H.n1 - 1 do
    let dv = float_of_int (task_off.(v + 1) - task_off.(v)) in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let contribution = w.(e) /. dv in
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        let u = h_adj.(i) in
        o.(u) <- o.(u) +. contribution
      done
    done
  done;
  o

(* Algorithm 5.  o(u) carries the expected load of u; realizing h converts
   its expectation w_h/d_v into the full w_h and cancels the siblings'. *)
let run_expected h =
  let { H.task_off; h_off; h_adj; w; _ } = h in
  let o = initial_expectations h in
  let choice = Array.make h.H.n1 (-1) in
  let order = degree_order h in
  for k = 0 to h.H.n1 - 1 do
    let v = order.(k) in
    let dv = float_of_int (task_off.(v + 1) - task_off.(v)) in
    let best = ref (-1) and best_key = ref infinity in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      (* Expected bottleneck if h were realized: every u ∈ h would carry
         o(u) + w_h − w_h/d_v.  On unit weights the added term is the
         same for all of v's options, so this order coincides with
         Algorithm 5's literal "max o(u) minimum"; on weighted instances
         it accounts for the candidate's own cost, mirroring the
         tentative realization that defines EVG (Sec. IV-D4). *)
      let key = ref 0.0 in
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        let x = o.(h_adj.(i)) in
        if x > !key then key := x
      done;
      let we = w.(e) in
      let key = !key +. we -. (we /. dv) in
      if key < !best_key then begin
        best := e;
        best_key := key
      end
    done;
    let chosen = !best in
    choice.(v) <- chosen;
    let wc = w.(chosen) in
    for i = h_off.(chosen) to h_off.(chosen + 1) - 1 do
      let u = h_adj.(i) in
      o.(u) <- o.(u) +. wc -. (wc /. dv)
    done;
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      if e <> chosen then begin
        let w' = w.(e) in
        for i = h_off.(e) to h_off.(e + 1) - 1 do
          let u = h_adj.(i) in
          o.(u) <- o.(u) -. (w' /. dv)
        done
      end
    done
  done;
  count_run h ~pin_scans:true;
  choice

(* Does realizing [cand] give a lexicographically smaller load vector than
   realizing [best]?  Both variants answer the same; [Naive] re-sorts the
   whole vector per candidate. *)
let better ~variant lv cand best =
  match variant with
  | Merged -> Lv.compare_hypothetical lv cand best < 0
  | Naive -> compare (Lv.hypothetical_sorted lv cand) (Lv.hypothetical_sorted lv best) < 0

(* The two vector heuristics keep the incumbent and the candidate in two
   reusable deltas over one [procs] array, task v's neighbourhood (the
   distinct processors of its configurations), and swap them when the
   candidate wins.  Sharing the array lets the comparison cancel, in one
   pass, every processor on which the two candidates agree. *)
type scratch = {
  stamp : int array;  (** [stamp.(u) = v]: u is in v's neighbourhood *)
  index_of : int array;  (** u's position in the neighbourhood *)
  mutable best : Lv.delta;
  mutable cand : Lv.delta;
}

let scratch lv p =
  let best = Lv.delta lv in
  {
    stamp = Array.make p (-1);
    index_of = Array.make p (-1);
    best;
    cand = { best with Lv.amounts = Array.make p 0.0 };
  }

(* List v's neighbourhood in the shared [procs] array and return its
   size. *)
let neighbourhood h s v =
  let procs = s.best.Lv.procs in
  let k = ref 0 in
  for i = h.H.h_off.(h.H.task_off.(v)) to h.H.h_off.(h.H.task_off.(v + 1)) - 1 do
    let u = h.H.h_adj.(i) in
    if s.stamp.(u) <> v then begin
      s.stamp.(u) <- v;
      s.index_of.(u) <- !k;
      procs.(!k) <- u;
      incr k
    end
  done;
  !k

(* Keep candidate [e], filled into [s.cand], if it beats the incumbent
   [best_e]; returns the new incumbent. *)
let consider ~variant lv s best_e e =
  if best_e < 0 || better ~variant lv s.cand s.best then begin
    let d = s.cand in
    s.cand <- s.best;
    s.best <- d;
    e
  end
  else best_e

(* VGH: candidate h adds w_h on its own processors and 0.0 on the rest of
   the neighbourhood. *)
let run_vector ~variant h =
  let { H.task_off; h_off; h_adj; w; _ } = h in
  let lv = Lv.create h.H.n2 in
  let s = scratch lv h.H.n2 in
  let choice = Array.make h.H.n1 (-1) in
  let order = degree_order h in
  for k = 0 to h.H.n1 - 1 do
    let v = order.(k) in
    let len = neighbourhood h s v in
    let best_e = ref (-1) in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let d = s.cand and we = w.(e) in
      Array.fill d.Lv.amounts 0 len 0.0;
      d.Lv.len <- len;
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        d.Lv.amounts.(s.index_of.(h_adj.(i))) <- we
      done;
      best_e := consider ~variant lv s !best_e e
    done;
    choice.(v) <- !best_e;
    Lv.apply_delta lv s.best
  done;
  count_run h ~pin_scans:false;
  choice

(* EVG: the load vector holds *expected* loads.  For task v, every candidate
   h perturbs the processors in v's whole neighbourhood: −w_h'/d_v for each
   sibling option h' (tentatively discarded) and additionally +w_h on h's own
   processors (tentatively realized). *)
let run_expected_vector ~variant h =
  let { H.task_off; h_off; h_adj; w; _ } = h in
  let lv = Lv.create h.H.n2 in
  let o0 = initial_expectations h in
  for u = 0 to h.H.n2 - 1 do
    if o0.(u) <> 0.0 then Lv.add lv ~proc:u ~w:o0.(u)
  done;
  let s = scratch lv h.H.n2 in
  (* [base] is the "discard everything" delta over v's neighbourhood. *)
  let base = Array.make h.H.n2 0.0 in
  let choice = Array.make h.H.n1 (-1) in
  let order = degree_order h in
  for k = 0 to h.H.n1 - 1 do
    let v = order.(k) in
    let dv = float_of_int (task_off.(v + 1) - task_off.(v)) in
    let len = neighbourhood h s v in
    Array.fill base 0 len 0.0;
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let w' = w.(e) /. dv in
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        let j = s.index_of.(h_adj.(i)) in
        base.(j) <- base.(j) -. w'
      done
    done;
    let best_e = ref (-1) in
    for e = task_off.(v) to task_off.(v + 1) - 1 do
      let d = s.cand and we = w.(e) in
      Array.blit base 0 d.Lv.amounts 0 len;
      d.Lv.len <- len;
      for i = h_off.(e) to h_off.(e + 1) - 1 do
        let j = s.index_of.(h_adj.(i)) in
        d.Lv.amounts.(j) <- d.Lv.amounts.(j) +. we
      done;
      best_e := consider ~variant lv s !best_e e
    done;
    choice.(v) <- !best_e;
    Lv.apply_delta lv s.best
  done;
  count_run h ~pin_scans:false;
  choice

let run ?(vector_variant = Merged) algorithm h =
  check h;
  let choice =
    match algorithm with
    | Sorted_greedy_hyp -> run_sorted h
    | Expected_greedy_hyp -> run_expected h
    | Vector_greedy_hyp -> run_vector ~variant:vector_variant h
    | Expected_vector_greedy_hyp -> run_expected_vector ~variant:vector_variant h
  in
  Hyp_assignment.of_choices h choice

let makespan algorithm h = Hyp_assignment.makespan h (run algorithm h)
