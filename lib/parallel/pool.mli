(** Fork-join batches over OCaml 5 domains.

    Each call runs one batch: it spawns [min jobs n - 1] fresh helper
    domains, and every participant, the calling domain included, takes the
    next task index from one shared atomic counter until the batch runs
    out.  The helpers are joined before the call returns.  [jobs = 1]
    therefore runs everything in the caller with no spawning at all (the
    right choice on single-core machines and whenever wall-clock timings
    are measured).  Tasks are claimed in ascending index order; a batch's
    tasks are coarse (a whole solver run, a whole experiment row), so
    taking one index at a time balances uneven costs.

    Because every batch owns its domains, a task may itself run a nested
    batch, within the runtime's domain limit (128 in OCaml 5.1).  A spawn
    that fails at that limit stops spawning: the participants already
    running finish the batch, so [jobs] caps the parallelism rather than
    promising it.

    Cancellation is cooperative via {!Cancel} tokens.  A task that raises
    trips the batch's internal token, so the remaining unstarted tasks are
    {e skipped} and the batch drains promptly instead of running to
    completion before re-raising — the smallest-index exception wins.

    Telemetry (free when [Obs] is disabled): every batch records a
    ["pool.submit"] span with one flow-start instant per task, every
    executed task a ["pool.task"] span carrying the same flow id — so
    [Obs.Trace] can draw submission→execution arrows across domains — and
    [parallel.pool.batches]/[tasks] count the traffic.  Each task runs under
    [Obs.Span.with_depth_guard], so a span leaked by a task cannot skew
    later spans' recorded nesting depth. *)

val run : ?cancel:Cancel.t -> jobs:int -> (unit -> unit) array -> unit
(** Execute every task on at most [jobs] domains, returning when all have
    finished or been skipped.  Tasks are skipped (never aborted mid-flight)
    once [cancel] trips or once any task raises; after the batch drains,
    the raised exception with the smallest task index is re-raised.  A
    tripped [cancel] alone does not raise — callers decide what partial
    completion means ({!map} raises {!Cancel.Cancelled}).  Raises
    [Invalid_argument] if [jobs < 1]. *)

val map : ?cancel:Cancel.t -> ?jobs:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map ~f items] applies [f] to every element through {!run}, preserving
    the order of results.  [f] must be safe to run concurrently on distinct
    elements.  [jobs] defaults to [Domain.recommended_domain_count ()]; the
    batch never uses more domains than items.  If any application raises,
    later items are skipped and the smallest-index exception is re-raised;
    if [cancel] trips first, {!Cancel.Cancelled} is raised instead.  Raises
    [Invalid_argument] if [jobs < 1]. *)

val map_list : ?jobs:int -> f:('a -> 'b) -> 'a list -> 'b list
(** List convenience wrapper over {!map}. *)
