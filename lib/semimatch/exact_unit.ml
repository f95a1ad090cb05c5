module G = Bipartite.Graph

type strategy = Incremental | Bisection

let strategy_name = function Incremental -> "incremental" | Bisection -> "bisection"

type guarantee = Makespan_optimal | Load_vector_optimal

let guarantee_name = function
  | Makespan_optimal -> "makespan-optimal"
  | Load_vector_optimal -> "load-vector-optimal"

type solution = {
  makespan : int;
  assignment : Bip_assignment.t;
  deadlines_tried : int;
}

let check g =
  if not (G.is_unit_weighted g) then invalid_arg "Exact_unit: weights must all be 1";
  if G.has_isolated_task g then invalid_arg "Exact_unit: task with no allowed processor";
  if g.G.n1 > 0 && g.G.n2 = 0 then invalid_arg "Exact_unit: no processors"

let of_hypergraph h =
  match Hyper.Graph.to_bipartite h with
  | Some g when G.is_unit_weighted g -> Some g
  | Some _ | None -> None

(* One maximum matching of G_d: every processor takes up to [d] tasks. *)
let matching_at ?engine g ~d =
  if d < 0 then invalid_arg "Exact_unit.feasible: negative deadline";
  Matching.solve ?engine ~capacities:(Array.make g.G.n2 d) g

let feasible ?engine g ~d =
  let result = matching_at ?engine g ~d in
  if result.Matching.size = g.G.n1 then Some (Bip_assignment.of_mates g result.Matching.mate1)
  else None

(* The Hall witness of a maximum matching of G_d that leaves k tasks
   exposed.  S is every task an alternating path from an exposed task
   reaches (task -> any neighbour column -> that column's occupants), N(S)
   the columns it reaches.  N(S) is the whole neighbourhood of S, and each
   of its columns is full with tasks of S, so |S| = d*|N(S)| + k and every
   schedule puts at least d + ceil(k/|N(S)|) tasks on some column of N(S).
   Each task of S enters the queue once and scans its edges once, so the
   search is O(n + m). *)
let hall_bound g ~d mate1 =
  let n1 = g.G.n1 and n2 = g.G.n2 in
  if Array.length mate1 <> n1 then invalid_arg "Exact_unit.hall_bound: mate1 length mismatch";
  (* occupants of each column, grouped by a counting sort on [mate1] *)
  let start = Array.make (n2 + 1) 0 in
  Array.iter
    (fun u ->
      if u >= n2 then invalid_arg "Exact_unit.hall_bound: mate out of range";
      if u >= 0 then start.(u + 1) <- start.(u + 1) + 1)
    mate1;
  for u = 0 to n2 - 1 do
    if start.(u + 1) > d then invalid_arg "Exact_unit.hall_bound: a column exceeds capacity d";
    start.(u + 1) <- start.(u) + start.(u + 1)
  done;
  let occupants = Array.make start.(n2) 0 and fill = Array.sub start 0 n2 in
  let queue = Array.make n1 0 and tail = ref 0 in
  Array.iteri
    (fun v u ->
      if u >= 0 then begin
        occupants.(fill.(u)) <- v;
        fill.(u) <- fill.(u) + 1
      end
      else begin
        queue.(!tail) <- v;
        incr tail
      end)
    mate1;
  let exposed = !tail in
  if exposed = 0 then invalid_arg "Exact_unit.hall_bound: the matching covers every task";
  let reached = Bytes.make n2 '\000' and columns = ref 0 and head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for e = g.G.off.(v) to g.G.off.(v + 1) - 1 do
      let u = g.G.adj.(e) in
      if Bytes.get reached u = '\000' then begin
        Bytes.set reached u '\001';
        incr columns;
        (* A column with room next to an exposed task's alternating path
           means the matching was not maximum, and the bound would be
           unsound. *)
        if start.(u + 1) - start.(u) < d then
          invalid_arg "Exact_unit.hall_bound: the matching is not maximum";
        for i = start.(u) to start.(u + 1) - 1 do
          queue.(!tail) <- occupants.(i);
          incr tail
        done
      end
    done
  done;
  if !columns = 0 then invalid_arg "Exact_unit.hall_bound: exposed tasks with no allowed processor";
  d + ((exposed + !columns - 1) / !columns)

let solve ?engine ?(strategy = Incremental) g =
  check g;
  if g.G.n1 = 0 then
    { makespan = 0; assignment = Bip_assignment.of_edges g [||]; deadlines_tried = 0 }
  else begin
    let tried = ref 0 in
    let attempt d =
      incr tried;
      feasible ?engine g ~d
    in
    let lo0 = Lower_bound.singleproc_unit g in
    match strategy with
    | Incremental ->
        (* Every deadline tried is at most the optimum: ceil(n/p) is a lower
           bound, and so is each failed matching's Hall witness bound, which
           can sit far above d + 1. *)
        let rec search d =
          incr tried;
          let result = matching_at ?engine g ~d in
          if result.Matching.size = g.G.n1 then
            {
              makespan = d;
              assignment = Bip_assignment.of_mates g result.Matching.mate1;
              deadlines_tried = !tried;
            }
          else search (hall_bound g ~d result.Matching.mate1)
        in
        search lo0
    | Bisection ->
        (* Invariant: makespan lo-1 infeasible (lo0-1 < LB is), hi feasible. *)
        let rec bisect lo hi best =
          if lo >= hi then
            { makespan = hi; assignment = best; deadlines_tried = !tried }
          else begin
            let mid = (lo + hi) / 2 in
            match attempt mid with
            | Some assignment -> bisect lo mid assignment
            | None -> bisect (mid + 1) hi best
          end
        in
        (* n1 is always feasible (stack everything on one allowed processor
           per task), so start from the first feasible power-of-two probe to
           avoid paying for huge hi when the optimum is small. *)
        let rec find_hi d =
          match attempt d with
          | Some assignment -> (d, assignment)
          | None -> find_hi (min g.G.n1 (2 * d))
        in
        let hi, best = find_hi (max lo0 1) in
        bisect lo0 hi best
  end

(* ---- the unified exact-engine catalogue ------------------------------ *)

type exact_engine =
  | Binary_search of Matching.engine
  | Harvey_online
  | Gen_hk
  | Divide_conquer

let all_exact_engines =
  List.map (fun e -> Binary_search e) Matching.all_engines
  @ [ Harvey_online; Gen_hk; Divide_conquer ]

let default_engine = Binary_search Matching.Hopcroft_karp

let exact_engine_name = function
  | Binary_search Matching.Dfs -> "bs-dfs"
  | Binary_search Matching.Hopcroft_karp -> "bs-hk"
  | Binary_search Matching.Push_relabel -> "bs-pr"
  | Harvey_online -> "harvey"
  | Gen_hk -> "gen-hk"
  | Divide_conquer -> "dnc"

let exact_engine_guarantee = function
  | Binary_search _ -> Makespan_optimal
  | Harvey_online | Gen_hk | Divide_conquer -> Load_vector_optimal

let solve_with ?strategy ~exact g =
  match exact with
  | Binary_search engine -> solve ~engine ?strategy g
  | Harvey_online ->
      let s = Harvey.solve g in
      { makespan = s.Harvey.makespan; assignment = s.Harvey.assignment; deadlines_tried = 0 }
  | Gen_hk ->
      let s = Gen_hk.solve g in
      {
        makespan = s.Gen_hk.makespan;
        assignment = s.Gen_hk.assignment;
        deadlines_tried = s.Gen_hk.phases;
      }
  | Divide_conquer ->
      let s = Divide_conquer.solve g in
      {
        makespan = s.Divide_conquer.makespan;
        assignment = s.Divide_conquer.assignment;
        deadlines_tried = s.Divide_conquer.matchings;
      }
