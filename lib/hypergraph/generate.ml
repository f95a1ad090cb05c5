type family = Fewg_manyg | Hilo

let family_name = function Fewg_manyg -> "fewg-manyg" | Hilo -> "hilo"

let check_sizes ~n ~p ~dv ~dh =
  if n <= 0 || p <= 0 then invalid_arg "Hyper.Generate: n and p must be positive";
  if dv <= 0 || dh <= 0 then invalid_arg "Hyper.Generate: dv and dh must be positive"

let degrees_step rng ~n ~dv =
  Array.init n (fun _ -> max 1 (Randkit.Binomial.sample rng ~trials:(2 * dv) ~p:0.5))

(* Hyperedge sizes Binomial(2·dh, ½) clamped to [1, p]: variable like the
   paper's families, so the Related weight scheme stays meaningful. *)
let draw_size rng ~dh ~p = min p (max 1 (Randkit.Binomial.sample rng ~trials:(2 * dh) ~p:0.5))

(* Zipf sampling by inversion over precomputed cumulative masses. *)
let zipf_sampler rng ~p ~alpha =
  if not (alpha > 0.0) then invalid_arg "Hyper.Generate: alpha must be positive";
  let cumulative = Array.make p 0.0 in
  let total = ref 0.0 in
  for u = 0 to p - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (u + 1)) alpha);
    cumulative.(u) <- !total
  done;
  fun () ->
    let x = Randkit.Prng.float rng !total in
    (* First index with cumulative >= x. *)
    let lo = ref 0 and hi = ref (p - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo

(* {2 Streaming emission}

   The two-step construction streams: step 1's degree array is O(n), and
   step 2's bipartite families yield their rows in row order (Hilo/
   Fewg_manyg [iter_rows]), so each hyperedge can be handed to [emit] and
   dropped.  Working memory is O(n + p) — degrees plus one group pool —
   never O(edges).  The RNG draw order matches the in-core builders
   (degrees, then pins in row order), so with [Unit] weights a streamed
   instance is exactly the materialized one for the same seed.  [Random]
   weights draw per record (the in-core path draws them in a separate final
   sweep), giving a valid but differently-weighted instance; [Related]
   needs the global min/max hyperedge size and cannot stream. *)

let stream_weight_drawer rng = function
  | Weights.Unit -> fun () -> 1.0
  | Weights.Random { lo; hi } ->
      if lo <= 0 || hi < lo then invalid_arg "Hyper.Generate.stream: need 0 < lo <= hi";
      fun () -> float_of_int (Randkit.Prng.int_in_range rng ~lo ~hi)
  | Weights.Related ->
      invalid_arg "Hyper.Generate.stream: Related weights need the whole instance in core"

(* Map bipartite row index -> owning task by walking the degree array in
   step with the row stream (rows arrive in order). *)
let task_cursor degrees =
  let v = ref 0 and left = ref 0 in
  fun () ->
    while !left = 0 do
      left := degrees.(!v);
      if !left = 0 then incr v
    done;
    decr left;
    let task = !v in
    if !left = 0 then incr v;
    task

let stream rng ~family ~n ~p ~dv ~dh ~g ~weights ~emit =
  check_sizes ~n ~p ~dv ~dh;
  let draw_w = stream_weight_drawer rng weights in
  let degrees = degrees_step rng ~n ~dv in
  let nh = Array.fold_left ( + ) 0 degrees in
  let next_task = task_cursor degrees in
  let row _i procs = emit ~task:(next_task ()) ~procs ~weight:(draw_w ()) in
  (match family with
  | Hilo -> Bipartite.Hilo.iter_rows ~n1:nh ~n2:p ~g ~d:dh row
  | Fewg_manyg -> Bipartite.Fewg_manyg.iter_rows rng ~n1:nh ~n2:p ~g ~d:dh row);
  nh

let stream_uniform rng ~n ~p ~dv ~dh ~weights ~emit =
  check_sizes ~n ~p ~dv ~dh;
  let draw_w = stream_weight_drawer rng weights in
  let degrees = degrees_step rng ~n ~dv in
  let nh = Array.fold_left ( + ) 0 degrees in
  let next_task = task_cursor degrees in
  for _i = 1 to nh do
    let size = draw_size rng ~dh ~p in
    let picks = Randkit.Prng.sample_without_replacement rng ~k:size ~n:p in
    Array.sort compare picks;
    emit ~task:(next_task ()) ~procs:picks ~weight:(draw_w ())
  done;
  nh

let stream_powerlaw rng ~n ~p ~dv ~dh ~alpha ~weights ~emit =
  check_sizes ~n ~p ~dv ~dh;
  let draw_w = stream_weight_drawer rng weights in
  let draw = zipf_sampler rng ~p ~alpha in
  let degrees = degrees_step rng ~n ~dv in
  let nh = Array.fold_left ( + ) 0 degrees in
  let next_task = task_cursor degrees in
  for _i = 1 to nh do
    let size = draw_size rng ~dh ~p in
    let seen = Hashtbl.create size in
    while Hashtbl.length seen < size do
      Hashtbl.replace seen (draw ()) ()
    done;
    let procs = Array.of_seq (Hashtbl.to_seq_keys seen) in
    Array.sort compare procs;
    emit ~task:(next_task ()) ~procs ~weight:(draw_w ())
  done;
  nh

(* {2 In-core instances}

   The emitters' unit-weight hyperedges collected into a graph, then the
   weight scheme applied: its draws follow every structural draw, and with
   [Unit] weights the graph is the streamed instance. *)

let collect rng ~n ~p ~dv ~dh ~weights emit_all =
  check_sizes ~n ~p ~dv ~dh;
  let b = Graph.builder ~n1:n ~n2:p ~hyperedges:0 ~pins:0 in
  ignore (emit_all ~weights:Weights.Unit ~emit:(Graph.add b));
  Weights.apply ~rng weights (Graph.build b)

let generate rng ~family ~n ~p ~dv ~dh ~g ~weights =
  collect rng ~n ~p ~dv ~dh ~weights (stream rng ~family ~n ~p ~dv ~dh ~g)

let generate_uniform rng ~n ~p ~dv ~dh ~weights =
  collect rng ~n ~p ~dv ~dh ~weights (stream_uniform rng ~n ~p ~dv ~dh)

let generate_powerlaw rng ~n ~p ~dv ~dh ~alpha ~weights =
  collect rng ~n ~p ~dv ~dh ~weights (stream_powerlaw rng ~n ~p ~dv ~dh ~alpha)

(* SINGLEPROC-UNIT edge streams: each bipartite edge becomes a singleton
   unit-weight hyperedge — the shape the Konrad–Rosén solvers consume. *)
let stream_sp rng ~family ~n ~p ~g ~d ~emit =
  if n <= 0 || p <= 0 then invalid_arg "Hyper.Generate: n and p must be positive";
  let edges = ref 0 in
  let row v neighbors =
    Array.iter
      (fun u ->
        incr edges;
        emit ~task:v ~proc:u)
      neighbors
  in
  (match family with
  | Hilo -> Bipartite.Hilo.iter_rows ~n1:n ~n2:p ~g ~d row
  | Fewg_manyg -> Bipartite.Fewg_manyg.iter_rows rng ~n1:n ~n2:p ~g ~d row);
  !edges

let fig2 () =
  Graph.create ~n1:4 ~n2:3
    ~hyperedges:
      [
        (0, [| 0 |], 1.0);
        (0, [| 1; 2 |], 1.0);
        (1, [| 0; 1 |], 1.0);
        (1, [| 1; 2 |], 1.0);
        (2, [| 2 |], 1.0);
        (3, [| 2 |], 1.0);
      ]
