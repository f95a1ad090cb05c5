(** Streaming semi-matching solvers in the Konrad–Rosén model
    (arXiv:1304.6906): edges arrive as a stream, working memory is
    O(n + p) — never O(m) — and quality is a provable factor off the
    optimal makespan.  The factors recorded here are proved from scratch in
    kr.ml (the paper's text is not retrievable); they are conservative, not
    the paper's sharpest constants.

    The provable solvers consume SINGLEPROC-UNIT streams (singleton
    unit-weight records — the classic semi-matching setting); general
    MULTIPROC streams get the online greedy, whose [guarantee] says
    explicitly that no factor is proved. *)

type guarantee =
  | One_pass_sqrt
      (** one pass; makespan ≤ (2·⌈√n⌉ + 1) · opt via the threshold +
          lightest-fallback rule *)
  | Few_pass_log
      (** ≤ log₂ n + log₂(2·opt) + 2 passes; makespan ≤ 4·opt·(log₂ n + 3)
          via adaptive per-pass intake thresholds *)
  | Online_greedy
      (** task-grouped bottleneck greedy for general configurations — no
          proven factor; quality measured against the streamed refined LB *)

val guarantee_name : guarantee -> string
(** ["one-pass-sqrt"] / ["few-pass-log"] / ["online-greedy"]. *)

val factor : n:int -> guarantee -> float
(** The proven multiplicative bound on makespan/opt for an [n]-task
    instance; [nan] for {!Online_greedy}. *)

type solution = {
  makespan : float;
  assignment : int array option;
      (** task → processor; present for the singleton-stream solvers *)
  lower_bound : float;
      (** streamed incrementally: ⌈n/p⌉ for unit streams, the refined
          MULTIPROC bound for general ones — never from an in-core graph *)
  guarantee : guarantee;
  factor : float;  (** {!factor} of [guarantee] at this [n] *)
  passes : int;  (** full scans of the stream *)
  edges : int;  (** records in one scan *)
  state_words : int;  (** resident solver state (the O(n+p) claim, in words) *)
}

val one_pass : Hyper.Stream_io.reader -> solution
(** One scan from the reader's current position.  The records arrive in
    checked runs from {!Hyper.Stream_io.iter_unit_chunks} and are decoded
    in the solver's own loop, so a record costs no callback.  Requires a
    singleton unit-weight stream ([Invalid_argument] otherwise); raises
    [Failure] on an edgeless task (infeasible instance) and, like the
    reader, on a bad record. *)

val few_pass : Hyper.Stream_io.reader -> solution
(** Multi-pass: rewinds the reader between passes, each pass read like
    {!one_pass}'s.  Same preconditions as {!one_pass}. *)

val online_greedy :
  ?on_choice:(task:int -> procs:int array -> weight:float -> unit) ->
  Hyper.Stream_io.reader ->
  solution
(** One scan over a general stream, deciding each task when its
    (contiguous) configuration group ends.  On a non-task-grouped stream
    later records of a decided task are skipped (counted in the
    [stream.regrouped] counter).  [on_choice] observes each committed
    decision — callers wanting the full schedule accumulate it there; the
    solver itself retains only O(n + p). *)

val peak_state_words : unit -> int
(** Process-lifetime high-water mark of [state_words] across all streamed
    solves — exported as a Prometheus gauge by the daemon and asserted
    against the CSR estimate by tests and CI. *)
