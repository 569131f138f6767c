(** Per-domain event journal for run post-mortems.

    The timeline answers the question the aggregate {!Metrics} registry
    cannot: {e when} did each chunk run, on {e which} domain, and what
    (steals, checkpoint writes, I/O retries, GC pressure) happened around
    it. Events are recorded into a fixed-capacity ring buffer owned by
    the recording domain — no locks, no shared mutable state on the hot
    path — and merged into one time-ordered view on {!snapshot}. When a
    ring fills, the {e oldest} events are dropped and counted, so a
    straggler's recent history always survives.

    Like {!Metrics}, a timeline starts disabled and every [record] on
    the disabled path is a single atomic load and a branch; enabling it
    never changes computed results (bit-identity is asserted in
    [test/test_timeline.ml] and the bench). Snapshots assume quiescence:
    take them after the instrumented work completes, as the CLI's
    [--trace-out] does. *)

(** {1 Events}

    Timestamps are Unix epoch seconds ({!entry.ts}). Duration-shaped
    events carry their own start time and are recorded at completion, so
    a ring overflow can never orphan half of an interval. *)

type event =
  | Chunk of { index : int; items : int; start : float }
      (** one driver chunk (e.g. [checkpoint_every] sources through the
          pool), recorded on the submitting domain *)
  | Pool_work of { start : float; stolen : bool }
      (** one domain's work loop within one [Pool.feed]; [stolen] marks a
          helper domain rather than the submitter *)
  | Steal  (** a helper executed one task the submitter did not *)
  | Queue_wait of { seconds : float }
      (** submit-to-first-poll latency of one helper *)
  | Ckpt_write of { path : string; seconds : float }
  | Ckpt_rotate of { path : string }
      (** the previous checkpoint generation was promoted to [*.prev] *)
  | Ckpt_fallback of { path : string }
      (** resume found the current generation corrupt and fell back *)
  | Io_retry of { op : string }
  | Gc_sample of { minor : int; major : int; heap_words : int }
      (** cumulative collection counts and major-heap words *)
  | Mark of { name : string }  (** generic instant *)
  | Worker_spawn of { worker : int; pid : int }
      (** shard coordinator started (or respawned) a worker process *)
  | Heartbeat_miss of { worker : int }
      (** a worker went silent past the heartbeat timeout and was
          declared dead *)
  | Frame_corrupt of { worker : int }
      (** a wire frame from this worker failed its CRC / framing check
          and the connection was dropped *)
  | Reassign of { source : int; from_worker : int; to_worker : int }
      (** an unacknowledged source went back to pending after its
          worker died, was partitioned or left; [to_worker] is the
          worker the dispatch then sent it to, or [-1] when every
          ready worker was at its in-flight window *)
  | Worker_rejoin of { worker : int }
      (** a respawned or reconnected worker completed its handshake
          again *)
  | Member_join of { worker : int }
      (** a new worker was admitted to the fleet mid-run (dynamic
          membership); once ready it takes pending sources *)
  | Member_leave of { worker : int }
      (** a worker departed gracefully: its pending work was
          reassigned, no respawn attempted *)
  | Auth_reject of { reason : string }
      (** an inbound connection failed the pre-shared-key handshake
          (wrong key, replayed nonce, or version mismatch) *)
  | Trace_ship of { worker : int; bytes : int }
      (** the coordinator shipped the full trace text to a worker that
          missed its digest cache *)
  | Trace_cache_hit of { worker : int }
      (** a worker already held the job's trace by digest — zero bytes
          shipped *)
  | Sample_round of { round : int; sampled : int; width : float }
      (** one tightening round of the sampled diameter estimator:
          cumulative sources sampled and the CI width it achieved *)
  | Shard_compute of { source : int; start : float }
      (** a shard worker computed one source's partial delay-CDF
          ([start]..[ts] span); the per-worker busy signal in merged
          fleet traces *)

type entry = { ts : float; ev : event }

(** {1 Recording} *)

type t
(** A journal. Most code uses the shared {!default} one. *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536) is the per-domain ring size. *)

val default : t

val set_enabled : ?tl:t -> bool -> unit
val enabled : ?tl:t -> unit -> bool

val record : ?tl:t -> ?ts:float -> event -> unit
(** Append to the calling domain's ring ([ts] defaults to now). A no-op
    when disabled — callers building event payloads should guard with
    {!enabled} to avoid the allocation, as the instrumented hot paths
    do. *)

val reset : ?tl:t -> unit -> unit
(** Empty every ring and zero the dropped counters. Call only while no
    other domain is recording. *)

(** {1 Snapshots} *)

type view = {
  events : (int * entry) list;
      (** (recording domain id, entry), ascending by [ts] (ties broken
          by domain id) *)
  dropped : (int * int) list;  (** per-domain dropped-event counts, by id *)
  capacity : int;
}

val snapshot : ?tl:t -> unit -> view
(** Merge every domain's ring. Relaxed like {!Metrics.snapshot}: a
    snapshot taken while domains are recording may miss in-flight
    events (never a torn one — slots hold immutable entries); dropped
    counts are exact once the recording domains are quiescent. *)

val total_dropped : view -> int
