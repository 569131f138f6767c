(** Bounded-retry wrappers for transient I/O failures.

    Long all-pairs runs read traces and write checkpoints thousands of
    times; a single [EINTR] or a briefly-unavailable network filesystem
    must not abort hours of work. [with_retries] re-runs an I/O thunk a
    bounded number of times with capped exponential backoff and
    deterministic seeded jitter, but only for failures classified as
    {!transient} — a missing file or a permission error fails
    immediately.

    Fault injection: tests install a hook with {!set_inject} that runs
    before every attempt and may raise {!Injected}; an injected fault
    is transient, so the retry path is exercisable without a faulty
    disk. *)

exception Injected of string
(** Raised only by injection hooks (see {!set_inject}); always treated
    as transient. *)

val set_inject : (op:string -> path:string -> unit) option -> unit
(** Install (or clear, with [None]) a process-wide fault-injection
    hook, called before every attempt of every retried operation.
    [op] names the operation (["read"], ["write"], ...); [path] the
    file. Raise from the hook — typically {!Injected} — to simulate a
    failure of that attempt. Test-only; not for production code. *)

val transient : exn -> bool
(** Failures worth retrying: {!Injected}, [Unix.EINTR] / [EAGAIN] /
    [EWOULDBLOCK], and [Sys_error] messages that spell out the same
    conditions. Everything else is permanent. *)

val on_retry : (op:string -> unit) ref
(** Called once per retry (not per attempt). [Omn_core.Driver] points
    this at the ["resilience.io_retries"] metrics counter and the
    timeline's [Io_retry] event; the default is a no-op because this
    library sits below the metrics registry in the dependency order. *)

val with_retries :
  ?attempts:int ->
  ?delay:float ->
  ?delay_max:float ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  op:string ->
  path:string ->
  (unit -> 'a) ->
  'a
(** [with_retries ~op ~path f] runs [f], re-running it on a transient
    exception up to [attempts] times total (default 3) with capped
    exponential backoff: attempt [k] sleeps
    [min delay_max (delay * 2^k)] scaled by a deterministic jitter in
    [0.5, 1.0) derived from [seed], [op] and [path] (defaults:
    [delay = 0.01]s, [delay_max = 0.5]s, [seed = 0]). The last
    transient failure, and any non-transient one, is re-raised.
    [sleep] defaults to [Unix.sleepf]; tests pass [ignore]-like
    functions to run instantly. Raises [Invalid_argument] if
    [attempts < 1]. *)

val eintr : (unit -> 'a) -> 'a
(** [eintr f] runs [f], retrying immediately (no backoff, unbounded)
    while it raises [Unix.EINTR]. For system calls like [select],
    [waitpid] or [accept] that a signal may interrupt without any
    progress being lost: a signal storm must not make the caller skip
    a poll round or abandon a reap. Other exceptions propagate. *)

val read_to_string : ?attempts:int -> string -> string
(** {!Atomic_file.read_to_string} under {!with_retries}. *)

val write : ?attempts:int -> string -> (out_channel -> unit) -> unit
(** {!Atomic_file.write} under {!with_retries}. Retrying is safe: the
    atomic temp-file-plus-rename protocol means a failed attempt never
    leaves a partial target. *)

val write_string : ?attempts:int -> string -> string -> unit
