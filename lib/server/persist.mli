(** On-disk durability layout for the scheduler daemon: epoch-paired
    atomic checkpoints plus a write-ahead {!Journal}.

    A persist directory holds

    {v
    ckpt-000003/            newest complete checkpoint (epoch 3)
      sessions.jsonl        one {"id","state"} line per session
      manifest.json         written LAST: format tag, epoch, file sizes
    ckpt-000002/            previous checkpoint, kept as a fallback
    journal-000003.wal      mutations since checkpoint 3
    v}

    Checkpoints are atomic by construction: sessions and manifest are
    written to a temp directory, fsynced, and [rename]d into place — a
    crash mid-checkpoint leaves either the previous complete checkpoint or
    both.  The journal is paired to the checkpoint {e epoch}: checkpoint
    [N] rotates writes into a fresh [journal-N.wal], and recovery replays
    only the journal of the newest valid checkpoint's epoch, so a crash
    between the checkpoint rename and any journal cleanup can never
    double-apply records.

    Each journal record is one {e drain group}: the raw request lines that
    the engine served back-to-back (preserving add_task batch boundaries,
    which affect placement), plus the [(idempotency id, reply)] pairs those
    requests produced so a restarted daemon answers client retries from
    cache instead of re-applying them. *)

type t

type group = { g_lines : string list; g_cached : (string * string) list }
(** One journal record: request lines replayed as a single engine step, and
    the idempotency-id cache entries to seed. *)

type recovery = {
  r_dir : string;
  r_epoch : int;  (** newest valid checkpoint's sequence number; 0 = none *)
  r_checkpoint : string option;  (** its directory name *)
  r_sessions : (string * Obs.Json.t) list;  (** checkpointed (id, state) *)
  r_groups : group list;  (** decoded journal suffix, in append order *)
  r_records : int;  (** [List.length r_groups] *)
  r_valid_bytes : int;  (** clean journal prefix *)
  r_torn_bytes : int;  (** trailing bytes past the last valid record *)
  r_skipped : (string * string) list;
      (** checkpoint directories that failed validation, with reasons —
          structural corruption, not crash residue (renames are atomic) *)
}

val load : string -> recovery
(** Read-only recovery view of a persist directory: pick the newest valid
    checkpoint, scan its epoch's journal, decode the groups.  Total — a
    missing or empty directory yields an empty recovery; torn tails and
    invalid checkpoints are reported, not raised.  Never writes (safe for
    [doctor] against a live daemon's directory). *)

val open_ : dir:string -> policy:Journal.policy -> version:string -> t * recovery
(** {!load}, then take ownership for writing: create the directory if
    needed, truncate the journal's torn tail, and open the epoch journal
    for appending.  Raises [Unix.Unix_error] on I/O failure. *)

val log : t -> lines:string list -> cached:(string * string) list -> unit
(** Append one {!group} record (then the fsync policy applies).  Must be
    called before the corresponding replies are flushed to clients. *)

val tick : t -> unit
(** Drive an [Interval] fsync policy between requests. *)

val checkpoint : t -> sessions:(string * Obs.Json.t) list -> (string, string) result
(** Write a complete checkpoint of [sessions] (id, {!Session.snapshot})
    and advance the epoch: temp dir → fsync files → rename → fsync parent
    → rotate to a fresh journal → prune all but the previous checkpoint.
    Returns the new checkpoint's directory name.  [Error] leaves the
    previous checkpoint and the current journal untouched. *)

val epoch : t -> int
val journal_records : t -> int
(** Records appended to the current epoch's journal by this process. *)

val close : t -> unit
(** Flush and close the journal.  Idempotent; does not checkpoint. *)
