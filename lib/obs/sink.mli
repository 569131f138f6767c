(** Pluggable destinations for metrics snapshots.

    The file sink writes the JSON snapshot atomically (temp file +
    rename) with transient-failure retries (via
    {!Omn_robust.Retry_io}), so a crash mid-write never leaves a torn
    snapshot and a stray EINTR never loses one — the properties long
    budgeted runs rely on when they re-emit metrics after every
    chunk. *)

type t

val null : t
val file : string -> t
(** Atomic JSON write (pretty-printed, trailing newline). *)

val channel : out_channel -> t

val write : t -> Metrics.snapshot -> unit

val emit : ?reg:Metrics.t -> t -> unit
(** Snapshot the registry and {!write} it. *)
