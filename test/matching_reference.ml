(* The Hopcroft–Karp and DFS engines as they were before each phase layered
   a saturated processor's occupants once, kept as the oracle for
   [Matching]: on every graph and capacity vector the library must return
   the same [mate1], byte for byte.  These rescan all occupants of a
   saturated processor at every reach (BFS) and copy them at every reach
   (DFS); the state below is the shared engine state of that version.
   Telemetry and operation counts are left out; the algorithms are
   verbatim. *)

module G = Bipartite.Graph

type state = {
  g : G.t;
  caps : int array;
  mate1 : int array;
  count2 : int array;
  matched_of : int Ds.Vec.t array;
}

let create g ~caps =
  {
    g;
    caps;
    mate1 = Array.make g.G.n1 (-1);
    count2 = Array.make g.G.n2 0;
    matched_of = Array.init g.G.n2 (fun _ -> Ds.Vec.create ());
  }

let residual st u = st.caps.(u) - st.count2.(u)

let assign st v u =
  st.mate1.(v) <- u;
  st.count2.(u) <- st.count2.(u) + 1;
  Ds.Vec.push st.matched_of.(u) v

let replace_occupant st ~v ~from:u ~victim:v' =
  let occupants = st.matched_of.(u) in
  let rec find i = if Ds.Vec.get occupants i = v' then i else find (i + 1) in
  Ds.Vec.set occupants (find 0) v;
  st.mate1.(v) <- u

let greedy_init st =
  let g = st.g in
  let order =
    Ds.Counting_sort.permutation ~n:g.G.n1 ~key:(fun v -> G.degree g v) ~max_key:(max 1 (G.max_degree g))
  in
  Array.iter
    (fun v ->
      let chosen = ref (-1) in
      G.iter_neighbors g v (fun u _w -> if !chosen < 0 && residual st u > 0 then chosen := u);
      if !chosen >= 0 then assign st v !chosen)
    order

let inf = max_int

let hopcroft_karp g ~caps =
  let st = create g ~caps in
  greedy_init st;
  let dist = Array.make g.G.n1 inf in
  let queue = Queue.create () in
  let bfs () =
    Queue.clear queue;
    Array.fill dist 0 g.G.n1 inf;
    for v = 0 to g.G.n1 - 1 do
      if st.mate1.(v) < 0 then begin
        dist.(v) <- 0;
        Queue.add v queue
      end
    done;
    let found = ref inf in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if dist.(v) < !found then
        G.iter_neighbors g v (fun u _w ->
            if residual st u > 0 then found := min !found (dist.(v) + 1)
            else
              Ds.Vec.iter
                (fun v' ->
                  if dist.(v') = inf then begin
                    dist.(v') <- dist.(v) + 1;
                    Queue.add v' queue
                  end)
                st.matched_of.(u))
    done;
    !found < inf
  in
  let rec dfs v =
    let rec over_edges e =
      if e >= g.G.off.(v + 1) then begin
        dist.(v) <- inf;
        false
      end
      else begin
        let u = g.G.adj.(e) in
        if residual st u > 0 then begin
          assign st v u;
          true
        end
        else begin
          let occupants = Ds.Vec.to_array st.matched_of.(u) in
          let rec try_occupants i =
            if i >= Array.length occupants then false
            else begin
              let v' = occupants.(i) in
              if st.mate1.(v') = u && dist.(v') = dist.(v) + 1 && dfs v' then begin
                replace_occupant st ~v ~from:u ~victim:v';
                true
              end
              else try_occupants (i + 1)
            end
          in
          if try_occupants 0 then true else over_edges (e + 1)
        end
      end
    in
    over_edges g.G.off.(v)
  in
  while bfs () do
    for v = 0 to g.G.n1 - 1 do
      if st.mate1.(v) < 0 then ignore (dfs v)
    done
  done;
  st.mate1

let dfs g ~caps =
  let st = create g ~caps in
  greedy_init st;
  let visited = Array.make g.G.n2 (-1) in
  let round = ref 0 in
  let rec augment v =
    let direct = ref (-1) in
    G.iter_neighbors g v (fun u _w -> if !direct < 0 && residual st u > 0 then direct := u);
    if !direct >= 0 then begin
      assign st v !direct;
      true
    end
    else begin
      let rec over_neighbors e =
        if e >= g.G.off.(v + 1) then false
        else begin
          let u = g.G.adj.(e) in
          if visited.(u) = !round then over_neighbors (e + 1)
          else begin
            visited.(u) <- !round;
            let occupants = Ds.Vec.to_array st.matched_of.(u) in
            let rec try_occupants i =
              if i >= Array.length occupants then false
              else begin
                let v' = occupants.(i) in
                if st.mate1.(v') = u && augment v' then begin
                  replace_occupant st ~v ~from:u ~victim:v';
                  true
                end
                else try_occupants (i + 1)
              end
            in
            if try_occupants 0 then true else over_neighbors (e + 1)
          end
        end
      in
      over_neighbors g.G.off.(v)
    end
  in
  for v = 0 to g.G.n1 - 1 do
    if st.mate1.(v) < 0 then begin
      incr round;
      ignore (augment v)
    end
  done;
  st.mate1
