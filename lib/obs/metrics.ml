(* Process-global named counters and histograms, sharded per domain.

   Handles are interned once at module-initialization time ([counter] /
   [histogram] take a registry mutex); the per-event operations touch only
   the calling domain's shard (found through [Domain.DLS]), so probes are
   lock-free and contention-free however many domains record concurrently.
   Shards register themselves in a global list on first use.  When a
   domain other than the main one exits, its shard is folded into one
   [retired] shard and leaves the list, so what a pool helper recorded
   survives the helper while the list stays as long as the number of live
   recording domains (every fork-join batch spawns fresh helpers, so a
   list of every shard ever created would grow with every batch).
   [fold_counters] / [fold_histograms] / the sinks merge all shards at
   report time, under the registry mutex that retirement also holds, so a
   retiring shard is counted exactly once.

   Within a shard, updates are plain in-place writes (single writer: the
   owning domain).  Merging while other domains are still recording is safe
   but approximate — a merge may miss the very latest increments; report
   after the parallel section joins (as the pool drivers do) and the sums
   are exact. *)

(* ---------- registry ---------- *)

type counter = { c_id : int; c_name : string }
type histogram = { h_id : int; h_name : string }

(* Power-of-two histogram: bucket 0 holds [0,1), bucket i >= 1 holds
   [2^(i-1), 2^i).  62 finite buckets cover every duration / path length we
   care about; the top bucket absorbs the rest. *)
let num_buckets = 64

let reg_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let num_counters = ref 0
let num_histograms = ref 0

let counter name =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_id = !num_counters; c_name = name } in
          Stdlib.incr num_counters;
          Hashtbl.add counters name c;
          c)

let histogram name =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = { h_id = !num_histograms; h_name = name } in
          Stdlib.incr num_histograms;
          Hashtbl.add histograms name h;
          h)

(* ---------- per-domain shards ---------- *)

(* No separate count: a shard's count is its bucket total, so a merge that
   races an observation still reads a bucket series whose total is the
   count it reports (a scrape's [+Inf] bucket never trails a finite one). *)
type hshard = {
  mutable hsum : float;
  mutable hlo : float;
  mutable hhi : float;
  hbuckets : int array;
}

let fresh_hshard () =
  { hsum = 0.0; hlo = infinity; hhi = neg_infinity; hbuckets = Array.make num_buckets 0 }

type shard = {
  mutable sc : int array; (* counter values, indexed by counter id *)
  mutable sh : hshard option array; (* histogram shards, indexed by id *)
}

(* What exited domains recorded, folded together by [retire]. *)
let retired = { sc = [||]; sh = [||] }

(* The shard of every live domain that has recorded, plus [retired].
   Guarded by [reg_mutex], and so is every write to [retired]. *)
let shards : shard list ref = ref [ retired ]

(* Growth replaces the arrays (merge readers read the field once and may
   see the smaller array — they just miss the newest entries, which is the
   documented merge-while-recording approximation). *)
let counter_slot s id =
  let sc = s.sc in
  if id < Array.length sc then sc
  else begin
    let bigger = Array.make (max (id + 1) ((2 * Array.length sc) + 8)) 0 in
    Array.blit sc 0 bigger 0 (Array.length sc);
    s.sc <- bigger;
    bigger
  end

let hist_slot s id =
  let sh =
    let sh = s.sh in
    if id < Array.length sh then sh
    else begin
      let bigger = Array.make (max (id + 1) ((2 * Array.length sh) + 4)) None in
      Array.blit sh 0 bigger 0 (Array.length sh);
      s.sh <- bigger;
      bigger
    end
  in
  match sh.(id) with
  | Some hs -> hs
  | None ->
      let hs = fresh_hshard () in
      sh.(id) <- Some hs;
      hs

let merge_hshard d (hs : hshard) =
  for i = 0 to num_buckets - 1 do
    d.(i) <- d.(i) + hs.hbuckets.(i)
  done

(* Exact fold of an exiting domain's shard into [retired]: counts, sums
   and buckets add, extremes take the min/max.  Runs on the exiting domain
   itself (no writer left) under [reg_mutex] (no reader in between). *)
let retire s =
  Mutex.protect reg_mutex (fun () ->
      Array.iteri
        (fun id v ->
          if v <> 0 then begin
            let sc = counter_slot retired id in
            sc.(id) <- sc.(id) + v
          end)
        s.sc;
      Array.iteri
        (fun id -> function
          | None -> ()
          | Some (hs : hshard) ->
              let d = hist_slot retired id in
              d.hsum <- d.hsum +. hs.hsum;
              if hs.hlo < d.hlo then d.hlo <- hs.hlo;
              if hs.hhi > d.hhi then d.hhi <- hs.hhi;
              merge_hshard d.hbuckets hs)
        s.sh;
      shards := List.filter (fun x -> x != s) !shards)

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = { sc = [||]; sh = [||] } in
      Mutex.protect reg_mutex (fun () -> shards := s :: !shards);
      if not (Domain.is_main_domain ()) then Domain.at_exit (fun () -> retire s);
      s)

let local_shard () = Domain.DLS.get shard_key

(* ---------- hot path ---------- *)

let incr c =
  if !Config.enabled then begin
    let sc = counter_slot (local_shard ()) c.c_id in
    sc.(c.c_id) <- sc.(c.c_id) + 1
  end

let add c n =
  if !Config.enabled then begin
    let sc = counter_slot (local_shard ()) c.c_id in
    sc.(c.c_id) <- sc.(c.c_id) + n
  end

let bucket_of v =
  if not (v >= 1.0) then 0 (* catches v < 1, nan *)
  else 1 + min (num_buckets - 2) (int_of_float (Float.log2 v))

let bucket_lo i = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 1))
let bucket_hi i = Float.pow 2.0 (float_of_int i)

let observe h v =
  if !Config.enabled then begin
    let hs = hist_slot (local_shard ()) h.h_id in
    hs.hsum <- hs.hsum +. v;
    if v < hs.hlo then hs.hlo <- v;
    if v > hs.hhi then hs.hhi <- v;
    let b = bucket_of v in
    hs.hbuckets.(b) <- hs.hbuckets.(b) + 1
  end

(* ---------- merging ---------- *)

(* Every reader merges while holding [reg_mutex], so it never sees a shard
   both in the list and already folded into [retired]. *)
let with_shards f = Mutex.protect reg_mutex (fun () -> f !shards)

let sum_counter ss c =
  List.fold_left
    (fun acc s -> if c.c_id < Array.length s.sc then acc + s.sc.(c.c_id) else acc)
    0 ss

let value c = with_shards (fun ss -> sum_counter ss c)

let shard_values c =
  with_shards (List.map (fun s -> if c.c_id < Array.length s.sc then s.sc.(c.c_id) else 0))

let shard_count () = with_shards List.length

(* Merged histogram data: the shape every statistic is computed from. *)
type hdata = {
  d_n : int;
  d_sum : float;
  d_lo : float;
  d_hi : float;
  d_buckets : int array;
}

let empty_hdata () =
  { d_n = 0; d_sum = 0.0; d_lo = infinity; d_hi = neg_infinity; d_buckets = Array.make num_buckets 0 }

let bucket_total buckets = Array.fold_left ( + ) 0 buckets

let merged_hdata ss h =
  let buckets = Array.make num_buckets 0 in
  let sum = ref 0.0 and lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun s ->
      match (if h.h_id < Array.length s.sh then s.sh.(h.h_id) else None) with
      | None -> ()
      | Some hs ->
          sum := !sum +. hs.hsum;
          if hs.hlo < !lo then lo := hs.hlo;
          if hs.hhi > !hi then hi := hs.hhi;
          merge_hshard buckets hs)
    ss;
  { d_n = bucket_total buckets; d_sum = !sum; d_lo = !lo; d_hi = !hi; d_buckets = buckets }

let merged h = with_shards (fun ss -> merged_hdata ss h)

(* ---------- statistics on merged data ---------- *)

let count h = (merged h).d_n
let sum h = (merged h).d_sum

let mean_of d = if d.d_n = 0 then Float.nan else d.d_sum /. float_of_int d.d_n
let min_of d = if d.d_n = 0 then Float.nan else d.d_lo
let max_of d = if d.d_n = 0 then Float.nan else d.d_hi

let minimum h = min_of (merged h)
let maximum h = max_of (merged h)

(* Rank-interpolated quantile on the bucketed representation: locate the
   bucket containing rank q·(n−1), interpolate linearly inside it, and clamp
   to the exact observed range (so n equal observations answer that value
   for every q). *)
let quantile_of d ~q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile: q outside [0,1]"
  else if d.d_n = 0 then Float.nan
  else if q = 0.0 then d.d_lo (* the extremes are tracked exactly *)
  else if q = 1.0 then d.d_hi
  else begin
    let rank = q *. float_of_int (d.d_n - 1) in
    let raw = ref d.d_hi in
    let acc = ref 0 in
    (try
       for i = 0 to num_buckets - 1 do
         let c = d.d_buckets.(i) in
         if c > 0 then begin
           if rank < float_of_int (!acc + c) then begin
             let frac = (rank -. float_of_int !acc) /. float_of_int c in
             raw := bucket_lo i +. (frac *. (bucket_hi i -. bucket_lo i));
             raise Exit
           end;
           acc := !acc + c
         end
       done
     with Exit -> ());
    Float.min d.d_hi (Float.max d.d_lo !raw)
  end

let quantile h ~q = quantile_of (merged h) ~q

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p95 : float;
  s_p99 : float;
}

let summary_of d =
  {
    s_count = d.d_n;
    s_sum = d.d_sum;
    s_min = min_of d;
    s_max = max_of d;
    s_mean = mean_of d;
    s_p50 = quantile_of d ~q:0.5;
    s_p90 = quantile_of d ~q:0.9;
    s_p95 = quantile_of d ~q:0.95;
    s_p99 = quantile_of d ~q:0.99;
  }

(* Bucket boundaries as (upper bound, cumulative count) pairs through the
   highest non-empty bucket — the shape a Prometheus histogram exposition
   wants for its [le] series; the last count is [d.d_n].  Empty: []. *)
let cumulative_of d =
  if d.d_n = 0 then []
  else begin
    let top = ref 0 in
    Array.iteri (fun i c -> if c > 0 then top := i) d.d_buckets;
    let acc = ref 0 in
    List.init (!top + 1) (fun i ->
        acc := !acc + d.d_buckets.(i);
        (bucket_hi i, !acc))
  end

(* Name-sorted registered handles; the caller holds [reg_mutex]. *)
let sorted_counters () =
  List.sort (fun a b -> compare a.c_name b.c_name) (Hashtbl.fold (fun _ c acc -> c :: acc) counters [])

let sorted_histograms () =
  List.sort
    (fun a b -> compare a.h_name b.h_name)
    (Hashtbl.fold (fun _ h acc -> h :: acc) histograms [])

(* Merge under the mutex, then run [f] outside it: [f] may register a
   handle, which takes the mutex again. *)
let fold_counters f init =
  with_shards (fun ss -> List.map (fun c -> (c.c_name, sum_counter ss c)) (sorted_counters ()))
  |> List.fold_left (fun acc (name, v) -> f name v acc) init

let fold_histograms f init =
  with_shards (fun ss -> List.map (fun h -> (h.h_name, merged_hdata ss h)) (sorted_histograms ()))
  |> List.fold_left (fun acc (name, d) -> f name (summary_of d) (cumulative_of d) acc) init

(* ---------- local snapshots (per-solver deltas under parallelism) ---------- *)

(* [local_snapshot]/[diff_since] window the *calling domain's* shard: the
   difference between two snapshots taken on one domain is exactly what ran
   there in between, however many other domains were recording concurrently.
   The CLI's parallel [profile] uses this to attribute metrics per solver.
   Counter deltas are exact.  Histogram deltas are exact in count, sum and
   buckets; min/max cannot be un-merged, so they are re-derived from the
   delta buckets at bucket resolution, clamped to the shard's observed
   range (exact whenever the snapshot was empty). *)

type snapshot = { snap_c : int array; snap_h : hdata option array }

let hdata_of_hshard hs =
  let buckets = Array.copy hs.hbuckets in
  { d_n = bucket_total buckets; d_sum = hs.hsum; d_lo = hs.hlo; d_hi = hs.hhi; d_buckets = buckets }

let local_snapshot () =
  let s = local_shard () in
  {
    snap_c = Array.copy s.sc;
    snap_h = Array.map (Option.map hdata_of_hshard) s.sh;
  }

let diff_since snap =
  let s = local_shard () in
  let cs, hs = Mutex.protect reg_mutex (fun () -> (sorted_counters (), sorted_histograms ())) in
  let counter_deltas =
    List.filter_map
      (fun c ->
        let now = if c.c_id < Array.length s.sc then s.sc.(c.c_id) else 0 in
        let before = if c.c_id < Array.length snap.snap_c then snap.snap_c.(c.c_id) else 0 in
        if now <> before then Some (c.c_name, now - before) else None)
      cs
  in
  let hist_deltas =
    List.filter_map
      (fun h ->
        let now =
          if h.h_id < Array.length s.sh then Option.map hdata_of_hshard s.sh.(h.h_id) else None
        in
        match now with
        | None -> None
        | Some now ->
            let before =
              if h.h_id < Array.length snap.snap_h then snap.snap_h.(h.h_id) else None
            in
            let d =
              match before with
              | None -> now
              | Some b ->
                  let buckets = Array.mapi (fun i c -> c - b.d_buckets.(i)) now.d_buckets in
                  let lo = ref infinity and hi = ref neg_infinity in
                  Array.iteri
                    (fun i c ->
                      if c > 0 then begin
                        if bucket_lo i < !lo then lo := bucket_lo i;
                        if bucket_hi i > !hi then hi := bucket_hi i
                      end)
                    buckets;
                  {
                    d_n = now.d_n - b.d_n;
                    d_sum = now.d_sum -. b.d_sum;
                    d_lo = Float.max now.d_lo !lo;
                    d_hi = Float.min now.d_hi !hi;
                    d_buckets = buckets;
                  }
            in
            if d.d_n > 0 then Some (h.h_name, summary_of d) else None)
      hs
  in
  (counter_deltas, hist_deltas)

(* ---------- reset ---------- *)

let reset_all () =
  Mutex.protect reg_mutex (fun () ->
      List.iter
        (fun s ->
          Array.fill s.sc 0 (Array.length s.sc) 0;
          Array.iter
            (function
              | None -> ()
              | Some hs ->
                  hs.hsum <- 0.0;
                  hs.hlo <- infinity;
                  hs.hhi <- neg_infinity;
                  Array.fill hs.hbuckets 0 num_buckets 0)
            s.sh)
        !shards)
