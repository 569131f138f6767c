(** Shard coordinator: a fleet of worker processes as one executor of
    {!Omn_core.Driver.run}, with failover.

    [with_fleet cfg plan f] starts one fleet session for a
    {!Omn_core.Delay_cdf.plan} and hands [f] an executor for
    [Driver.run]'s [partials_of]. Every batch the driver passes it is
    served to completion: its sources are consistent-hashed over the
    fleet ({!Ring}) in the batch's order, [Compute] requests stream
    over CRC-framed connections ({!Frame}/{!Proto}) — Unix-domain
    sockets for spawned same-host workers, authenticated TCP
    ({!Transport}, {!Auth}) for multi-machine fleets — and one result
    per source comes back, in order. The session keeps no budget,
    merge or plan of its own: batching, budget, checkpoint/resume,
    progress, sampling and the ascending-position
    {!Omn_core.Delay_cdf.fold} are the driver's, so the curves are
    bit-identical to {!Omn_core.Delay_cdf.compute} (over the sources
    that completed) at any worker count, under any membership
    schedule and any failure schedule that still completes.

    Fleet shape: [workers] processes are spawned locally and dial back
    in; [peers] are pre-started [omn worker --listen] processes the
    coordinator dials (playing the {!Auth} {e client} on those links).
    Both are part of the initial fleet the first batch's dispatch
    barrier waits for. Additional members may join mid-run: an
    authenticated connection whose [Hello] carries [worker = -1] is
    admitted, assigned the next id, and added to the ring — only the
    moved arc's {e pending} sources route to it; assigned sources are
    never recalled, so at-most-once merging is preserved at any
    membership schedule. The fleet lives for the whole session: later
    batches reuse its workers, their trace and their result caches.

    Trace shipping is digest-addressed: the job carries the trace's
    SHA-256, and only a worker that cannot produce the bytes locally
    (memory, or its [--trace-cache] content store) asks for them via
    [Need_trace]. A rejoining worker with a warm cache re-ships zero
    bytes ([stats.trace_cache_hits]).

    Failure semantics:
    - a spawned worker that closes its connection, sends a corrupt
      frame, or misses the heartbeat timeout (it may be hung —
      [SIGSTOP]ed — not dead) is [SIGKILL]ed and reaped; its
      {e unacknowledged} sources are reassigned to their ring
      successors; a bounded number of respawns with exponential
      backoff brings it back, and its shard checkpoint lets it resume
      rather than recompute. Only time inside a batch counts as
      silence: the heartbeat clock restarts with every batch;
    - a dialed peer whose link drops is re-dialed under the same
      bounded-backoff budget ([max_respawns]); a peer that {e rejects}
      our credentials or speaks another protocol version aborts the
      batch with a typed [E-AUTH]/[E-PROTO] error (retrying an
      identical handshake cannot succeed);
    - an inbound connection that fails the pre-shared-key handshake is
      rejected with a typed error frame, counted
      ([stats.auth_rejects]), and closed — the run is unaffected;
    - duplicate results (a reassignment race, net-dup chaos, or a late
      answer to an earlier batch) are dropped at the accounting table
      — a source is merged {e at most once};
    - a source that exhausts the worker-side supervision policy
      ([supervise], shipped whole in the job) comes back as
      [Error failure]. [Driver.run] applies the in-process rule: the
      source joins [progress.degraded] (CLI exit 3) when the driver's
      policy quarantines, and the run fails with a [Compute] error
      (CLI exit 1) otherwise — with [quarantine = false], without a
      policy, and under sampling;
    - when every worker has exhausted its respawns and sources remain,
      the executor raises a [Compute] error (CLI exit 1), which
      [Driver.run] returns: results are never silently incomplete.

    The chaos schedule ({!Omn_robust.Faultgen.shard_event}) is
    interpreted here: after the scheduled number of acknowledged
    results (counted over the whole session) the victim is killed,
    stopped, frame-corrupted, partitioned (link dropped, process kept
    — it must reconnect), slowed (frames delayed within a bound
    strictly below the heartbeat timeout — a slow link is never
    declared dead), duplicated (net-dup), joined by an impostor with a
    wrong key (auth-bad), grown (worker-join) or shrunk
    (worker-leave). All shard events are recorded in
    {!Omn_obs.Timeline} and counted in [Omn_obs.Metrics] under
    [shard.*] / [shard.net.*]. *)

type spawn =
  | Spawn_exec
      (** re-execute [Sys.executable_name worker --id I --connect ADDR]
          — the CLI path; requires the running binary to expose the
          [worker] subcommand. The pre-shared key travels in the
          [OMN_SHARD_KEY] environment variable, never argv *)
  | Spawn_fork
      (** [Unix.fork] and call {!Worker.main} in the child — the test
          path; only safe while no other domains are running *)

type config = {
  workers : int;  (** locally spawned workers (may be 0 with [peers]) *)
  worker_domains : int;  (** domain-pool size inside each worker *)
  vnodes : int;  (** ring points per worker *)
  max_inflight : int;
      (** flow-control window: max unacknowledged [Compute]s per worker.
          Bounds socket buffering on large runs, and guarantees a worker
          that dies or hangs mid-run leaves undispatched work behind —
          so failover (not a drained socket buffer) is what completes
          the run under chaos schedules *)
  spawn : spawn;
  heartbeat_interval : float;  (** seconds between [Ping]s *)
  heartbeat_timeout : float;
      (** silence past this declares a worker dead; must exceed the
          longest single-source compute time *)
  max_respawns : int;
      (** respawns (or re-dials, for peers) per worker after its first *)
  respawn_backoff : float;  (** base respawn delay, doubled per respawn *)
  supervise : Omn_parallel.Supervise.policy option;
      (** the supervision policy workers apply per source (retries,
          backoff, deadlines); [None] = one attempt. Pass the same
          policy to [Driver.run], which decides quarantine *)
  ckpt_dir : string option;
      (** directory for per-worker shard checkpoints; created if missing *)
  chaos : Omn_robust.Faultgen.shard_event list;  (** must be ascending *)
  sock_path : string option;
      (** Unix listener path (default: a fresh path under [TMPDIR]);
          ignored when [listen] is set *)
  listen : Transport.addr option;
      (** listener address; [Tcp (host, 0)] binds an ephemeral port
          (spawned workers are pointed at the actually-bound one) *)
  peers : Transport.addr list;
      (** pre-started [omn worker --listen] addresses to dial *)
  auth_key : string option;
      (** pre-shared key: require the {!Auth} handshake on every link *)
  worker_trace_cache : string option;
      (** [--trace-cache] directory handed to spawned workers *)
  telemetry : bool;
      (** pull each worker's metrics snapshot and timeline segments
          ([Stats_pull]/[Stats_push]) every [stats_interval] seconds
          while a batch is served, and once more when the session
          ends; results are bit-identical on or off (telemetry frames
          ride the same links but results are slot-ordered) *)
  stats_interval : float;  (** seconds between telemetry pulls *)
  stat_addr : Transport.addr option;
      (** when set, serve a live Prometheus text exposition of the
          merged registry (coordinator as [worker="-1"] plus every
          worker's latest push) over HTTP on this address — the seed of
          the [omnd] query surface. [Tcp (host, 0)] binds an ephemeral
          port; see [on_stat_bound] *)
  on_stat_bound : (Transport.addr -> unit) option;
      (** called once with the actually-bound stat address *)
}

val default : workers:int -> config
(** 1 domain per worker, 64 vnodes, a 32-source in-flight window,
    [Spawn_exec], 0.25 s heartbeat interval, 5 s timeout, 2 respawns
    with 0.1 s base backoff, no supervision retries, no checkpoints, no
    chaos, no peers, no auth, Unix-domain listener, no telemetry (1 s
    pull interval when enabled), no stat endpoint. *)

type telemetry = {
  tw_worker : int;
  tw_metrics : Omn_obs.Metrics.snapshot;
      (** the worker's last pushed snapshot (counters are cumulative,
          so the last push is the total) *)
  tw_events : (int * Omn_obs.Timeline.entry) list;
      (** all pulled timeline segments concatenated, chronological,
          worker-clock timestamps (correct with [tw_offset]) *)
  tw_dropped : (int * int) list;  (** per-domain ring drops *)
  tw_offset : float;
      (** estimated worker_clock - coordinator_clock (seconds), from
          the lowest-RTT pull round trip; [0.] if never estimated *)
  tw_rtt : float;  (** that sample's round-trip time *)
}
(** One worker's accumulated telemetry, ready for
    {!Omn_obs.Trace_export.fleet_to_json} ([tw_events]/[tw_dropped]/
    [tw_offset]/[tw_rtt] map onto [fleet_worker]) and for
    {!Omn_obs.Metrics.merge} after [tag_worker]. *)

type stats = {
  spawns : int;
      (** worker processes started (incl. respawns) and peer links
          established (incl. re-dials) *)
  heartbeat_misses : int;
  frame_corrupts : int;
  reassigned : int;  (** sources moved off a dead or partitioned worker *)
  rejoins : int;
      (** workers that completed a handshake again after having been
          ready before (respawn or reconnect) *)
  duplicates : int;  (** duplicate results dropped by the acked table *)
  auth_rejects : int;  (** inbound connections that failed the handshake *)
  partitions : int;  (** chaos-injected link drops *)
  trace_ship_bytes : int;  (** total trace bytes shipped to workers *)
  trace_cache_hits : int;
      (** sessions that reached [Ready] without any trace shipping *)
  joins : int;  (** members admitted mid-run *)
  leaves : int;  (** members departed gracefully mid-run *)
  shard_map_sha256 : string;
      (** digest of the initial source->worker assignment *)
  fleet : telemetry list;
      (** per-worker telemetry, ascending worker id; empty when
          [config.telemetry] is off *)
}

type executor =
  Omn_temporal.Node.t list ->
  (Omn_core.Delay_cdf.partial, Omn_parallel.Supervise.failure) result list
(** [Driver.run]'s [partials_of]: one result per source, in order. *)

val with_fleet :
  config ->
  Omn_core.Delay_cdf.plan ->
  (executor -> 'a) ->
  ('a * stats, Omn_robust.Err.t) result
(** [with_fleet cfg plan f] binds the listener, runs [f] with the
    session's executor — typically
    [fun partials_of -> Driver.run ~partials_of plan] — and tears the
    session down on every exit path: a final telemetry pull, [Shutdown]
    to every worker, the socket unlinked, [SIGPIPE] restored. Workers
    start with the first batch and serve every later one. The plan
    supplies the job's trace, hop bound, grid, windows and
    destinations; a batch may name any of its sources. The executor
    raises [Omn_robust.Err.Error] when the fleet is lost ([Compute]),
    a peer rejects the handshake ([Auth]/[Proto]) or a worker returns
    an undecodable partial ([Compute]); [Driver.run] returns such an
    error as its own.

    [Error] only when the session cannot start: [Usage] for a fleet
    without workers, non-positive heartbeat parameters or
    [max_inflight < 1]; [Io] for a listener, stat address or
    checkpoint directory that cannot be set up. An exception from [f]
    is re-raised after the teardown. [stats] covers the whole
    session. *)
