module G = Bipartite.Graph

type engine = Dfs | Hopcroft_karp | Push_relabel

let all_engines = [ Dfs; Hopcroft_karp; Push_relabel ]

let engine_name = function
  | Dfs -> "dfs"
  | Hopcroft_karp -> "hopcroft-karp"
  | Push_relabel -> "push-relabel"

type result = { mate1 : int array; size : int }

type stats = { phases : int; augmentations : int; steals : int; scans : int }

let solve_with_stats ?(engine = Hopcroft_karp) ?capacities g =
  let caps = match capacities with Some c -> c | None -> Array.make g.G.n2 1 in
  let counters = Engine_common.fresh_stats () in
  let mate1 =
    match engine with
    | Dfs -> Dfs_engine.run ~stats:counters g ~caps
    | Hopcroft_karp -> Hopcroft_karp_engine.run ~stats:counters g ~caps
    | Push_relabel -> Push_relabel_engine.run ~stats:counters g ~caps
  in
  let size = Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 mate1 in
  (* One event per engine run, whatever the engine: enough for the event
     log to show which engine ran when, and how hard. *)
  if Obs.is_enabled () then
    Obs.Events.emit "matching.solved"
      [
        Obs.Events.str "engine" (engine_name engine);
        Obs.Events.int "size" size;
        Obs.Events.int "phases" counters.Engine_common.phases;
        Obs.Events.int "augmentations" counters.Engine_common.augmentations;
        Obs.Events.int "scans" counters.Engine_common.scans;
      ];
  ( { mate1; size },
    {
      phases = counters.Engine_common.phases;
      augmentations = counters.Engine_common.augmentations;
      steals = counters.Engine_common.steals;
      scans = counters.Engine_common.scans;
    } )

let solve ?engine ?capacities g = fst (solve_with_stats ?engine ?capacities g)

let occupancy g result =
  let count = Array.make g.G.n2 0 in
  Array.iteri
    (fun v u ->
      if u >= 0 then begin
        if u >= g.G.n2 then invalid_arg "Matching.occupancy: mate out of range";
        let ok = ref false in
        G.iter_neighbors g v (fun u' _w -> if u' = u then ok := true);
        if not !ok then invalid_arg "Matching.occupancy: matched pair is not an edge";
        count.(u) <- count.(u) + 1
      end)
    result.mate1;
  count

let is_maximal_valid ?capacities g result =
  let caps = match capacities with Some c -> c | None -> Array.make g.G.n2 1 in
  match occupancy g result with
  | exception Invalid_argument _ -> false
  | count ->
      let capacity_ok = Array.for_all2 (fun c cap -> c <= cap) count caps in
      let no_trivial_augment = ref true in
      Array.iteri
        (fun v u ->
          if u < 0 then
            G.iter_neighbors g v (fun u' _w -> if count.(u') < caps.(u') then no_trivial_augment := false))
        result.mate1;
      capacity_ok && !no_trivial_augment
