(* Streaming semi-matching in the Konrad–Rosén model (arXiv:1304.6906):
   edges arrive as a stream, working memory is O(n + p) — never O(m) — and
   the schedule quality is a provable factor off the optimal makespan.  The
   paper's text is not retrievable, so the two solvers below are stated and
   proved from scratch in that model; the factors recorded on solutions are
   the ones proved here (conservative, not the paper's sharpest constants).

   Both provable solvers run on SINGLEPROC-UNIT streams (every record a
   singleton unit-weight configuration — the classic semi-matching setting).

   One-pass, threshold t = ceil(sqrt n):
     on edge (a,b) with a unassigned: assign a to b if load(b) < t, else
     remember b as a's fallback if it is the lightest neighbour seen; at
     stream end every still-unassigned task takes its fallback.
     Bound: let F be the fallback set, f = |F|.  When an edge (a,b) of an
     a in F arrived, load(b) >= t, and loads only grow, so every neighbour
     of F ends with >= t assignees; assignees total n, hence |N(F)| <= n/t
     <= sqrt n.  OPT places F inside N(F), so opt >= f / sqrt n, i.e.
     f <= opt * sqrt n.  Final load <= t + f <= (sqrt n + 1) + opt * sqrt n
     <= opt * (2 * ceil(sqrt n) + 1) since opt >= 1.

   Few-pass, adaptive per-pass intake threshold t:
     each pass scans the whole stream; a still-unassigned task a is
     assigned to the first neighbour whose intake THIS PASS is < t (loads
     are cumulative across passes, intakes reset).  If a pass fails to
     halve the unassigned set, t doubles.
     Halving lemma: if U1 is unassigned after a pass over unassigned set
     U0, every server of N(U1) took intake exactly t, so t * |N(U1)| <=
     |U0| - |U1|; OPT fits U1 into N(U1) with max load opt, hence |U1| <=
     opt * (|U0| - |U1|) / t — with t >= 2*opt this gives |U1| <= |U0|/2.
     Contrapositive: a failed halving certifies t < 2*opt, so t stays
     < 4*opt forever.  Doubling passes add at most 2 * t_final < 8*opt
     load per server; at most log2 n + 1 halving passes add < 4*opt each.
     Makespan <= 4 * opt * (log2 n + 3); passes <= log2 n + log2(2*opt) + 2.

   General MULTIPROC streams (weighted, multi-processor configurations) get
   the online greedy: the generators emit each task's configurations
   contiguously, so the solver buffers one task's configurations and picks
   the one minimizing the resulting bottleneck — no proven factor (the
   guarantee says so), quality is measured against the streamed refined LB. *)

module Sio = Hyper.Stream_io

type guarantee = One_pass_sqrt | Few_pass_log | Online_greedy

let guarantee_name = function
  | One_pass_sqrt -> "one-pass-sqrt"
  | Few_pass_log -> "few-pass-log"
  | Online_greedy -> "online-greedy"

let factor ~n = function
  | One_pass_sqrt -> (2.0 *. Float.ceil (sqrt (float_of_int (max n 1)))) +. 1.0
  | Few_pass_log -> 4.0 *. ((Float.log (float_of_int (max n 2)) /. Float.log 2.0) +. 3.0)
  | Online_greedy -> Float.nan

type solution = {
  makespan : float;
  assignment : int array option;  (** task -> processor, singleton streams only *)
  lower_bound : float;
  guarantee : guarantee;
  factor : float;
  passes : int;
  edges : int;
  state_words : int;
}

let c_records = Obs.Metrics.counter "stream.records"
let c_passes = Obs.Metrics.counter "stream.passes"
let c_fallbacks = Obs.Metrics.counter "stream.fallbacks"
let c_regrouped = Obs.Metrics.counter "stream.regrouped"
let h_state = Obs.Metrics.histogram "stream.state.words"
let h_ratio = Obs.Metrics.histogram "stream.quality.ratio"

let () =
  Obs.Prom.describe "stream.records" "Edge-stream records consumed by streaming solvers.";
  Obs.Prom.describe "stream.passes" "Stream passes performed by streaming solvers.";
  Obs.Prom.describe "stream.fallbacks" "Tasks placed by the one-pass fallback rule.";
  Obs.Prom.describe "stream.regrouped"
    "Records skipped because their task was already decided (non-grouped stream).";
  Obs.Prom.describe "stream.state.words" "Resident solver state per streamed solve, in words.";
  Obs.Prom.describe "stream.quality.ratio" "Streamed makespan / streamed refined lower bound."

(* The bounded-memory claim, kept honest: the high-water mark of resident
   solver state across this process, exported as a Prometheus gauge by the
   daemon and asserted against the CSR estimate by tests and CI. *)
let peak_state = Atomic.make 0

let note_state words =
  Obs.Metrics.observe h_state (float_of_int words);
  let rec bump () =
    let seen = Atomic.get peak_state in
    if words > seen && not (Atomic.compare_and_set peak_state seen words) then bump ()
  in
  bump ()

let peak_state_words () = Atomic.get peak_state

let finish ~makespan ~assignment ~lower_bound ~guarantee ~n ~passes ~edges ~state_words =
  note_state state_words;
  if lower_bound > 0.0 then Obs.Metrics.observe h_ratio (makespan /. lower_bound);
  {
    makespan;
    assignment;
    lower_bound;
    guarantee;
    factor = factor ~n guarantee;
    passes;
    edges;
    state_words;
  }

let require_unit_singleton hdr name =
  if not (Sio.singleton hdr && Sio.unit_weight hdr) then
    invalid_arg (Printf.sprintf "Stream.Kr.%s: needs a singleton unit-weight stream" name);
  if hdr.Sio.h_n1 > 0 && hdr.Sio.h_n2 = 0 then
    invalid_arg (Printf.sprintf "Stream.Kr.%s: tasks but no processors" name)

let unit_lb ~n ~p = if n = 0 then 0.0 else float_of_int (((n - 1) / p) + 1)

let max_load load =
  let m = ref 0 in
  Array.iter (fun l -> if l > !m then m := l) load;
  float_of_int !m

let one_pass reader =
  let hdr = Sio.header reader in
  require_unit_singleton hdr "one_pass";
  let n = hdr.Sio.h_n1 and p = hdr.Sio.h_n2 in
  let t = int_of_float (Float.ceil (sqrt (float_of_int (max n 1)))) in
  let assign = Array.make n (-1) in
  let fallback = Array.make n (-1) in
  let load = Array.make p 0 in
  let edges = ref 0 in
  Sio.iter_unit_chunks reader (fun buf ~pos ~count ->
      edges := !edges + count;
      for i = 0 to count - 1 do
        let off = pos + (Sio.unit_record_bytes * i) in
        let a = Sio.unit_task buf off in
        if assign.(a) < 0 then begin
          let b = Sio.unit_proc buf off in
          if load.(b) < t then begin
            assign.(a) <- b;
            load.(b) <- load.(b) + 1
          end
          else if fallback.(a) < 0 || load.(b) < load.(fallback.(a)) then fallback.(a) <- b
        end
      done);
  Obs.Metrics.add c_records !edges;
  Obs.Metrics.incr c_passes;
  for a = 0 to n - 1 do
    if assign.(a) < 0 then begin
      let b = fallback.(a) in
      if b < 0 then failwith (Printf.sprintf "Stream.Kr.one_pass: task %d has no edge" a);
      assign.(a) <- b;
      load.(b) <- load.(b) + 1;
      Obs.Metrics.incr c_fallbacks
    end
  done;
  finish ~makespan:(max_load load) ~assignment:(Some assign) ~lower_bound:(unit_lb ~n ~p)
    ~guarantee:One_pass_sqrt ~n ~passes:1 ~edges:!edges
    ~state_words:((2 * n) + p)

let ceil_log2 n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

(* Safety valve far above the proved pass bound; hitting it is a bug, not
   an instance property. *)
let max_passes ~n = (4 * (ceil_log2 (max 2 n) + 2)) + 8

let few_pass reader =
  let hdr = Sio.header reader in
  require_unit_singleton hdr "few_pass";
  let n = hdr.Sio.h_n1 and p = hdr.Sio.h_n2 in
  let assign = Array.make n (-1) in
  let load = Array.make p 0 in
  let intake = Array.make p 0 in
  let saw = Bytes.make (max n 1) '\000' in
  (* Starting at the trivial LB <= opt skips the early doubling passes
     without breaking the t < 4*opt invariant. *)
  let t = ref (max 1 (int_of_float (unit_lb ~n ~p))) in
  let unmatched = ref n in
  let edges = ref 0 and passes = ref 0 in
  let limit = max_passes ~n in
  while !unmatched > 0 do
    if !passes > limit then failwith "Stream.Kr.few_pass: pass bound exceeded";
    if !passes > 0 then Sio.rewind reader;
    incr passes;
    Obs.Metrics.incr c_passes;
    Array.fill intake 0 p 0;
    Bytes.fill saw 0 n '\000';
    let before = !unmatched in
    let seen = ref 0 in
    Sio.iter_unit_chunks reader (fun buf ~pos ~count ->
        seen := !seen + count;
        let cap = !t in
        for i = 0 to count - 1 do
          let off = pos + (Sio.unit_record_bytes * i) in
          let a = Sio.unit_task buf off in
          if assign.(a) < 0 then begin
            Bytes.set saw a '\001';
            let b = Sio.unit_proc buf off in
            if intake.(b) < cap then begin
              assign.(a) <- b;
              intake.(b) <- intake.(b) + 1;
              load.(b) <- load.(b) + 1;
              decr unmatched
            end
          end
        done);
    Obs.Metrics.add c_records !seen;
    if !passes = 1 then edges := !seen;
    if !unmatched > 0 then begin
      (* Any task still unmatched with no incident edge this pass has no
         edge at all: infeasible, and more passes cannot help. *)
      let isolated = ref (-1) in
      for a = 0 to n - 1 do
        if assign.(a) < 0 && Bytes.get saw a = '\000' && !isolated < 0 then isolated := a
      done;
      if !isolated >= 0 then
        failwith (Printf.sprintf "Stream.Kr.few_pass: task %d has no edge" !isolated);
      if 2 * !unmatched > before then t := 2 * !t
    end
  done;
  finish ~makespan:(max_load load) ~assignment:(Some assign) ~lower_bound:(unit_lb ~n ~p)
    ~guarantee:Few_pass_log ~n ~passes:!passes ~edges:!edges
    ~state_words:(n + (2 * p) + ((n + 7) / 8))

(* General streams: buffer one task's configurations (the generators emit
   them contiguously), pick the one minimizing the resulting bottleneck.
   Records for an already-decided task — possible only on a non-grouped
   stream — are counted and skipped.  [on_choice], when given, receives
   each committed (task, procs, weight) decision as it is made — the
   differential tests use it to check feasibility without the solver ever
   retaining the choices itself. *)
let online_greedy ?on_choice reader =
  let hdr = Sio.header reader in
  let n = hdr.Sio.h_n1 and p = hdr.Sio.h_n2 in
  if n > 0 && p = 0 then invalid_arg "Stream.Kr.online_greedy: tasks but no processors";
  let load = Array.make p 0.0 in
  let decided = Bytes.make (max n 1) '\000' in
  (* Streamed refined LB, incremental: per-task cheapest w*|S| and the
     heaviest per-task cheapest w — Lower_bound.multiproc_refined. *)
  let cheapest_time = Array.make n infinity in
  let cheapest_w = Array.make n infinity in
  let pending = ref (-1) in
  let best_procs = ref [||] and best_w = ref 0.0 and best_peak = ref infinity in
  let edges = ref 0 and skipped = ref 0 and undecided = ref n in
  let commit () =
    if !pending >= 0 then begin
      let a = !pending in
      Bytes.set decided a '\001';
      decr undecided;
      Array.iter (fun u -> load.(u) <- load.(u) +. !best_w) !best_procs;
      (match on_choice with
      | Some f -> f ~task:a ~procs:!best_procs ~weight:!best_w
      | None -> ());
      pending := -1;
      best_peak := infinity
    end
  in
  Sio.iter reader (fun ~task:a ~procs ~weight:w ->
      incr edges;
      let k = Array.length procs in
      let time = w *. float_of_int k in
      if time < cheapest_time.(a) then cheapest_time.(a) <- time;
      if w < cheapest_w.(a) then cheapest_w.(a) <- w;
      if Bytes.get decided a = '\001' then incr skipped
      else begin
        if !pending >= 0 && !pending <> a then commit ();
        pending := a;
        let peak = Array.fold_left (fun acc u -> Float.max acc (load.(u) +. w)) 0.0 procs in
        if
          peak < !best_peak
          || (peak = !best_peak && Array.length procs < Array.length !best_procs)
        then begin
          best_procs := procs;
          best_w := w;
          best_peak := peak
        end
      end);
  commit ();
  Obs.Metrics.add c_records !edges;
  Obs.Metrics.incr c_passes;
  Obs.Metrics.add c_regrouped !skipped;
  if !undecided > 0 then begin
    let a = ref 0 in
    while !a < n && Bytes.get decided !a = '\001' do
      incr a
    done;
    failwith (Printf.sprintf "Stream.Kr.online_greedy: task %d has no configuration" !a)
  end;
  let lb =
    if n = 0 || p = 0 then 0.0
    else begin
      let total = ref 0.0 and heaviest = ref 0.0 in
      for a = 0 to n - 1 do
        total := !total +. cheapest_time.(a);
        if cheapest_w.(a) > !heaviest then heaviest := cheapest_w.(a)
      done;
      Float.max (!total /. float_of_int p) !heaviest
    end
  in
  let makespan = Array.fold_left Float.max 0.0 load in
  finish ~makespan ~assignment:None ~lower_bound:lb ~guarantee:Online_greedy ~n ~passes:1
    ~edges:!edges
    ~state_words:(p + (3 * n) + ((n + 7) / 8))
