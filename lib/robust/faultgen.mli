(** Deterministic fault injection for trace files.

    Operates on the {e textual} trace format (see [Omn_temporal.Trace_io])
    so it can produce inputs no well-typed API would ever build:
    truncated records, mangled fields, NaN times, lying window headers.
    All corruption is driven by [Omn_stats.Rng], so a given [(seed,
    fault, input)] triple always yields the same corrupted output —
    recovery-path tests are reproducible. *)

type fault =
  | Truncate of float
      (** keep this fraction of record lines, then cut the next record
          mid-line (a 3-field prefix) — a crashed logger *)
  | Mangle of float  (** per-record probability: replace a field with garbage *)
  | Nan_times of float  (** per-record probability: replace a time with [nan] *)
  | Self_loop of float  (** per-record probability: set both endpoints equal *)
  | Negative_id of float  (** per-record probability: negate a node id *)
  | Window_lie
      (** shrink the declared window so records fall outside it *)
  | Reorder  (** shuffle record lines (parseable, but out of order) *)
  | Duplicate of float  (** per-record probability: emit the record twice *)
  | Ckpt_truncate of float
      (** binary: keep this fraction of the file's bytes — a torn
          checkpoint write. Breaks the CRC-32 trailer; {!Checkpoint.load}
          must fall back to the previous generation. *)
  | Ckpt_flip
      (** binary: XOR one byte after the magic line — a bit-rotted
          checkpoint. Detected by the CRC-32 check. *)
  | Ckpt_stale
      (** binary: alter one character of the embedded 32-hex-char
          fingerprint and {e re-seal} the CRC-32 trailer — a checkpoint
          whose integrity check passes but that belongs to different
          parameters. Exercises the fingerprint-mismatch fallback. *)

val name : fault -> string

val of_name : string -> fault option
(** Inverse of {!name}, with default parameters (e.g. ["truncate"] is
    [Truncate 0.5]). *)

val all_names : string list

val apply : seed:int -> fault -> string -> string
(** Corrupt a trace text. Probabilistic faults hit at least one record
    (when any record exists), so the output is never accidentally
    clean. The [Ckpt_*] faults treat the input as raw bytes (magic
    line + binary payload + CRC trailer, the {!Checkpoint} framing)
    and are meant for checkpoint files, not trace texts. *)

val corpus : ?seed:int -> string -> (string * string) list
(** Named corrupted variants of a well-formed trace text, one per fault
    that a [Strict] parse must reject: truncate, mangle, nan,
    self-loop, negative-id, window-lie. ([Reorder] and [Duplicate] are
    excluded: a strict parse legitimately accepts them.) *)

(** {1 Shard faults}

    Process-level faults for the multi-process shard layer
    ([Omn_shard]). Unlike the faults above these are not byte
    transformations but {e events in time}: at a deterministic point in
    a sharded run — measured in acknowledged per-source results, the
    only monotone clock every run shares — a chosen worker is killed,
    stopped, partitioned, slowed, duplicated, joined or departed, or an
    unauthenticated joiner knocks. A schedule is pure data; the shard
    coordinator interprets it. *)

type shard_fault =
  | Worker_kill  (** SIGKILL the worker process — a hard crash *)
  | Worker_hang
      (** SIGSTOP the worker — alive but unresponsive; must be detected
          by heartbeat timeout, then killed and failed over *)
  | Sock_corrupt
      (** flip a byte inside the next result frame from that worker —
          the CRC check must reject it and the connection be treated as
          broken *)
  | Net_partition
      (** drop the worker's connection without touching the process —
          a network partition; the worker must reconnect (or be timed
          out and failed over), and an eventual rejoin must not
          re-ship the trace or duplicate results *)
  | Net_slow
      (** delay processing of the worker's frames for a bounded window
          shorter than the heartbeat timeout — a slow link must never
          be declared dead *)
  | Net_dup
      (** process the worker's next result frame twice — a retransmit;
          the at-most-once merge must drop the duplicate *)
  | Auth_bad
      (** launch an extra joiner with a wrong pre-shared key — it must
          be rejected with a typed [E-AUTH] and leave the run's result
          untouched *)
  | Worker_join  (** admit a brand-new worker into the fleet mid-run *)
  | Worker_leave
      (** graceful departure of the victim: reassign its pending work,
          no respawn *)

val shard_fault_name : shard_fault -> string
val shard_fault_of_name : string -> shard_fault option
val shard_fault_names : string list

type shard_event = { after_results : int; victim : int; shard_fault : shard_fault }
(** Fire [shard_fault] at worker index [victim] (modulo the live worker
    count at interpretation time) once [after_results] per-source
    results have been acknowledged. *)

val pp_shard_event : Format.formatter -> shard_event -> unit
