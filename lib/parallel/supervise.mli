(** Supervised task execution: bounded retries, deadlines, quarantine.

    The all-pairs drivers fan thousands of independent per-source tasks
    over a domain pool; unsupervised, the first raising task abandons
    the whole run ({!Pool.map} semantics). A {!policy}
    turns that into a supervision strategy: each failing task is
    retried up to [retries] extra times with capped exponential backoff
    and deterministic seeded jitter, and a task that still fails is
    {e quarantined} — its slot records a typed {!failure} while every
    other task completes normally. Because a retry re-runs the same
    pure task on the same input, and successful slots keep the slot-[i]
    contract of [Pool.map], all successful results are bit-identical
    to a fault-free run.

    Counters (registry of [Omn_obs.Metrics]): [supervise.retries],
    [supervise.task_failures], [supervise.quarantined],
    [supervise.deadline_giveups], and — wired from here into
    [Omn_robust.Retry_io] — [resilience.io_retries]. *)

type policy = {
  retries : int;  (** extra attempts after the first (0 = fail fast) *)
  backoff : float;  (** base backoff delay, seconds *)
  backoff_max : float;  (** cap on a single backoff delay *)
  jitter_seed : int;  (** seed of the deterministic backoff jitter *)
  task_deadline : float option;
      (** wall-clock budget per attempt: an attempt that {e fails}
          after exceeding it is not retried (a run cannot afford to
          re-run a task that already demonstrated it overruns).
          Attempts cannot be pre-empted mid-flight; a {e successful}
          overrun is kept. *)
  quarantine : bool;
      (** [true]: a task that exhausts its retries yields
          [Error failure]; [false]: its exception is re-raised (the
          pre-supervision behaviour, with retries). *)
}

val default : policy
(** 2 retries, 50 ms base backoff capped at 1 s, seed 0, no task
    deadline, quarantine on. *)

type failure = {
  item : int;  (** caller-assigned id (see [map]'s [id]), default index *)
  attempts : int;  (** attempts actually made, >= 1 *)
  reason : string;  (** [Printexc.to_string] of the last exception *)
}

val pp_failure : Format.formatter -> failure -> unit

val failure_to_tuple : failure -> int * int * string
val failure_of_tuple : int * int * string -> failure
(** Stable tuple form for checkpoint snapshots and wire messages, so
    Marshal payloads do not depend on the record's representation.
    [failure_of_tuple (failure_to_tuple f) = f]. *)

val exit_code : partial:bool -> degraded:bool -> int
(** The documented CLI exit-code precedence for a completed run:
    partial (124, the [timeout(1)] convention) beats degraded-but-
    complete (3) beats success (0). All drivers — single-process and
    sharded — report through this one function so the precedence can
    never drift between them. *)

val set_task_fault : (item:int -> attempt:int -> unit) option -> unit
(** Chaos hook: install (or clear) a process-wide function called at
    the start of every supervised attempt with the task's [item] id and
    0-based [attempt] number. Raise from it to inject a task fault —
    deterministically targeting chosen items, transiently (raise only
    on [attempt = 0]) or persistently. Test-only. *)

val backoff_delay : policy -> item:int -> attempt:int -> float
(** The deterministic backoff before retrying [item] after failed
    [attempt] (0-based): [min backoff_max (backoff * 2^attempt)] scaled
    by a jitter in [0.5, 1.0) derived from [(jitter_seed, item,
    attempt)] only. Exposed for tests. *)

val validate : policy -> unit
(** Raises [Invalid_argument] naming the field on a malformed policy:
    negative [retries], a backoff or task deadline that is negative or
    NaN. An infinite deadline is no limit. {!run_task} and {!map} call
    it; an executor that ships the policy elsewhere calls it first. *)

val run_task :
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  policy ->
  item:int ->
  (unit -> 'b) ->
  ('b, failure) result
(** Run one task under the policy. [clock] defaults to
    [Unix.gettimeofday], [sleep] to [Unix.sleepf] (tests pass a no-op
    to run instantly). Raises [Invalid_argument] on a malformed policy
    ({!validate}). With [quarantine = false] the final exception is
    re-raised instead of returned. *)

val map :
  ?pool:Pool.t ->
  ?domains:int ->
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  ?id:('a -> int) ->
  policy ->
  ('a -> 'b) ->
  'a array ->
  ('b, failure) result array
(** Supervised fan-out with {!Pool.run} dispatch (shared
    [pool], else a temporary pool of [domains], else sequential — same
    rules, same slot-[i] determinism for successful items). [id] maps
    an input to the id recorded in its {!failure} and passed to the
    chaos hook and jitter (default: its array index). *)

val failures : ('b, failure) result array -> failure list
(** The [Error] slots, in slot order. *)
