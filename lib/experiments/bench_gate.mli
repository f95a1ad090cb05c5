(** Benchmark-regression gate: compares a fresh smoke-benchmark run against
    a committed baseline using per-group median/MAD tolerance bands, with a
    CPU-calibration loop cancelling out machine-speed differences.  Feeds
    [bench --baseline FILE --check] and appends to the BENCH trajectory. *)

type group = {
  g_name : string;  (** e.g. ["FG-5-1-MP/SGH"] *)
  g_reps : int;  (** runs per timed sample, fixed at baseline-write time *)
  g_median_s : float;  (** median sample duration (seconds) *)
  g_mad_s : float;  (** median absolute deviation of the samples *)
  g_samples : int;  (** number of samples the summary was computed from *)
}

type baseline = { b_calib_s : float; b_groups : group list }

val median_mad : float array -> float * float
(** Median and median-absolute-deviation.  Raises [Invalid_argument] on
    empty input. *)

val calibrate : unit -> float
(** Wall time of a fixed CPU-bound loop (~tens of ms); the ratio of this
    value between check time and baseline time scales the tolerance bands
    so a uniformly faster/slower machine does not move verdicts. *)

val reps_for : ?target_s:float -> (unit -> unit) -> int
(** Repetition count so one timed batch of the workload lasts about
    [target_s] (default 20ms).  Warm-runs the workload once first. *)

val measure : ?samples:int -> reps:int -> (unit -> unit) -> (float * float) array
(** [samples] pairs: a {!calibrate} run, then the duration of a batch of
    [reps] back-to-back runs timed right after it, so both see the same
    load from neighbouring processes. *)

val baseline_of_workloads : ?samples:int -> (string * (unit -> unit)) list -> baseline
(** Pick reps per group, measure, and summarize — the whole
    baseline-writing pipeline.  Each batch is rescaled from its own
    calibration run to the median calibration of the measurement, which
    becomes the baseline's [b_calib_s]. *)

val write_baseline : string -> baseline -> unit
(** JSON-lines file: one [meta] row (calibration), one [group] row each. *)

val load_baseline : string -> baseline
(** Inverse of {!write_baseline}.  Raises [Failure] on malformed files. *)

type verdict = {
  v_group : string;
  v_baseline_s : float;
  v_now_s : float;  (** nan when the group was not measured this run *)
  v_limit_s : float;
  v_regressed : bool;
}

val check_medians :
  ?slowdown:float -> baseline -> calib_now:float -> (string * float) list -> verdict list
(** Pure comparison core: one verdict per baseline group, regressed when
    [now > scale * (rel * median + k * mad) + floor] with
    [scale = clamp (calib_now / baseline calib)].  A baseline group absent
    from the measurements is a regression (gate integrity).  [slowdown]
    multiplies the measured medians — test/CI hook for injecting a fake
    regression. *)

val check :
  ?slowdown:float ->
  ?samples:int ->
  baseline ->
  (string * (unit -> unit)) list ->
  verdict list * float
(** Re-measure every baseline group present in the workload list (with the
    baseline's reps, batches rescaled as in {!baseline_of_workloads}) and
    compare.  Returns the verdicts and the current (median) calibration
    time. *)

val all_pass : verdict list -> bool

val render : verdict list -> string
(** Human-readable verdict table (ms). *)

val append_trajectory : string -> calib_s:float -> verdict list -> unit
(** Append one JSON line ({i unix_ts}, calibration, per-group now/baseline
    seconds) to the trajectory file, creating it if needed. *)
