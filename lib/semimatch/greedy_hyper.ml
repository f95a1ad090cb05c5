module H = Hyper.Graph
module Lv = Ds.Load_vector

(* Probe points shared by the four greedy variants: [candidates] counts
   configuration evaluations (the outer work term), [pin_scans] the
   processor touches inside them (the inner term ~ sum of |h∩V2| over
   evaluated h).  Load-vector traffic of VGH/EVG lands in ds.loadvec.*. *)
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

(* Algorithm 4.  The bottleneck of realizing h is max_{u∈h}(l(u) + w_h);
   on unit weights this order coincides with the paper's max l(u). *)
let run_sorted h =
  let l = Array.make h.H.n2 0.0 in
  let choice = Array.make h.H.n1 (-1) in
  Array.iter
    (fun v ->
      let best = ref (-1) and best_key = ref infinity in
      H.iter_task_hyperedges h v (fun e ->
          Obs.Metrics.incr c_candidates;
          let w = H.h_weight h e in
          let bottleneck = ref 0.0 in
          H.iter_h_procs h e (fun u ->
              Obs.Metrics.incr c_pin_scans;
              if l.(u) > !bottleneck then bottleneck := l.(u));
          let key = !bottleneck +. w in
          if key < !best_key then begin
            best := e;
            best_key := key
          end);
      choice.(v) <- !best;
      Obs.Metrics.incr c_realized;
      let w = H.h_weight h !best in
      H.iter_h_procs h !best (fun u -> l.(u) <- l.(u) +. w))
    (degree_order h);
  choice

(* Algorithm 5.  o(u) carries the expected load of u; realizing h converts
   its expectation w_h/d_v into the full w_h and cancels the siblings'. *)
let run_expected h =
  let o = Array.make h.H.n2 0.0 in
  for v = 0 to h.H.n1 - 1 do
    let dv = float_of_int (H.task_degree h v) in
    H.iter_task_hyperedges h v (fun e ->
        let contribution = H.h_weight h e /. dv in
        H.iter_h_procs h e (fun u -> o.(u) <- o.(u) +. contribution))
  done;
  let choice = Array.make h.H.n1 (-1) in
  Array.iter
    (fun v ->
      let dv = float_of_int (H.task_degree h v) in
      let best = ref (-1) and best_key = ref infinity in
      H.iter_task_hyperedges h v (fun e ->
          (* Expected bottleneck if h were realized: every u ∈ h would carry
             o(u) + w_h − w_h/d_v.  On unit weights the added term is the
             same for all of v's options, so this order coincides with
             Algorithm 5's literal "max o(u) minimum"; on weighted instances
             it accounts for the candidate's own cost, mirroring the
             tentative realization that defines EVG (Sec. IV-D4). *)
          Obs.Metrics.incr c_candidates;
          let w = H.h_weight h e in
          let key = ref 0.0 in
          H.iter_h_procs h e (fun u ->
              Obs.Metrics.incr c_pin_scans;
              if o.(u) > !key then key := o.(u));
          let key = !key +. w -. (w /. dv) in
          if key < !best_key then begin
            best := e;
            best_key := key
          end);
      choice.(v) <- !best;
      Obs.Metrics.incr c_realized;
      let chosen = !best in
      let w = H.h_weight h chosen in
      H.iter_h_procs h chosen (fun u -> o.(u) <- o.(u) +. w -. (w /. dv));
      H.iter_task_hyperedges h v (fun e ->
          if e <> chosen then begin
            let w' = H.h_weight h e in
            H.iter_h_procs h e (fun u -> o.(u) <- o.(u) -. (w' /. dv))
          end))
    (degree_order h);
  choice

(* Does realizing [cand] give a lexicographically smaller load vector than
   realizing [best]?  Both variants answer the same; [Naive] re-sorts the
   whole vector per candidate. *)
let better ~variant lv cand best =
  match variant with
  | Merged -> Lv.compare_hypothetical lv cand best < 0
  | Naive -> compare (Lv.hypothetical_sorted lv cand) (Lv.hypothetical_sorted lv best) < 0

(* The two vector heuristics keep the incumbent and the candidate in two
   reusable deltas and swap them when the candidate wins. *)
let swap cand best =
  let d = !cand in
  cand := !best;
  best := d

let run_vector ~variant h =
  let lv = Lv.create h.H.n2 in
  let cand = ref (Lv.delta lv) and best = ref (Lv.delta lv) in
  let choice = Array.make h.H.n1 (-1) in
  Array.iter
    (fun v ->
      let best_e = ref (-1) in
      for e = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
        Obs.Metrics.incr c_candidates;
        let d = !cand and w = h.H.w.(e) and first = h.H.h_off.(e) in
        d.len <- h.H.h_off.(e + 1) - first;
        for i = 0 to d.len - 1 do
          d.procs.(i) <- h.H.h_adj.(first + i);
          d.amounts.(i) <- w
        done;
        if !best_e < 0 || better ~variant lv d !best then begin
          best_e := e;
          swap cand best
        end
      done;
      choice.(v) <- !best_e;
      Obs.Metrics.incr c_realized;
      Lv.apply_delta lv !best)
    (degree_order h);
  choice

(* EVG: the load vector holds *expected* loads.  For task v, every candidate
   h perturbs the processors in v's whole neighbourhood: −w_h'/d_v for each
   sibling option h' (tentatively discarded) and additionally +w_h on h's own
   processors (tentatively realized).  All of v's candidates share one
   [procs] array, which lets the comparison cancel the processors on which
   two candidates agree. *)
let run_expected_vector ~variant h =
  let lv = Lv.create h.H.n2 in
  (* Initial expectations, as in Algorithm 5. *)
  let o0 = Array.make h.H.n2 0.0 in
  for v = 0 to h.H.n1 - 1 do
    let dv = float_of_int (H.task_degree h v) in
    H.iter_task_hyperedges h v (fun e ->
        let contribution = H.h_weight h e /. dv in
        H.iter_h_procs h e (fun u -> o0.(u) <- o0.(u) +. contribution))
  done;
  for u = 0 to h.H.n2 - 1 do
    if o0.(u) <> 0.0 then Lv.add lv ~proc:u ~w:o0.(u)
  done;
  (* Scratch space to aggregate per-processor deltas of one task: [base]
     is the "discard everything" delta over v's neighbourhood. *)
  let stamp = Array.make h.H.n2 (-1) in
  let index_of = Array.make h.H.n2 (-1) in
  let base = Array.make h.H.n2 0.0 in
  let best = ref (Lv.delta lv) in
  let cand = ref { !best with Lv.amounts = Array.make h.H.n2 0.0 } in
  let procs = !best.Lv.procs in
  let choice = Array.make h.H.n1 (-1) in
  Array.iter
    (fun v ->
      let dv = float_of_int (H.task_degree h v) in
      let k = ref 0 in
      for i = h.H.h_off.(h.H.task_off.(v)) to h.H.h_off.(h.H.task_off.(v + 1)) - 1 do
        let u = h.H.h_adj.(i) in
        if stamp.(u) <> v then begin
          stamp.(u) <- v;
          index_of.(u) <- !k;
          procs.(!k) <- u;
          base.(!k) <- 0.0;
          incr k
        end
      done;
      for e = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
        let w' = h.H.w.(e) /. dv in
        for i = h.H.h_off.(e) to h.H.h_off.(e + 1) - 1 do
          let j = index_of.(h.H.h_adj.(i)) in
          base.(j) <- base.(j) -. w'
        done
      done;
      let best_e = ref (-1) in
      for e = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
        Obs.Metrics.incr c_candidates;
        let d = !cand and w = h.H.w.(e) in
        Array.blit base 0 d.Lv.amounts 0 !k;
        d.Lv.len <- !k;
        for i = h.H.h_off.(e) to h.H.h_off.(e + 1) - 1 do
          let j = index_of.(h.H.h_adj.(i)) in
          d.Lv.amounts.(j) <- d.Lv.amounts.(j) +. w
        done;
        if !best_e < 0 || better ~variant lv d !best then begin
          best_e := e;
          swap cand best
        end
      done;
      choice.(v) <- !best_e;
      Obs.Metrics.incr c_realized;
      Lv.apply_delta lv !best)
    (degree_order h);
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
