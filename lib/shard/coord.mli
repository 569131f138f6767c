(** Shard coordinator: sources over worker processes, with failover.

    [run] consistent-hashes the plan's sources, in its processing
    order, over the worker fleet ({!Ring}), streams [Compute] requests
    over CRC-framed connections ({!Frame}/{!Proto}) — Unix-domain
    sockets for spawned same-host workers, authenticated TCP
    ({!Transport}, {!Auth}) for multi-machine fleets — and folds the
    per-source partials back together with
    {!Omn_core.Delay_cdf.fold}, in ascending source position: the final
    curves are bit-identical to {!Omn_core.Delay_cdf.compute} at any
    worker count, under any membership schedule and any failure
    schedule that still completes.

    Fleet shape: [workers] processes are spawned locally and dial back
    in; [peers] are pre-started [omn worker --listen] processes the
    coordinator dials (playing the {!Auth} {e client} on those links).
    Both are part of the initial fleet the dispatch barrier waits for.
    Additional members may join mid-run: an authenticated connection
    whose [Hello] carries [worker = -1] is admitted, assigned the next
    id, and added to the ring — only the moved arc's {e pending}
    sources route to it; assigned sources are never recalled, so
    at-most-once merging is preserved at any membership schedule.

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
      rather than recompute;
    - a dialed peer whose link drops is re-dialed under the same
      bounded-backoff budget ([max_respawns]); a peer that {e rejects}
      our credentials or speaks another protocol version aborts the
      run with a typed [E-AUTH]/[E-PROTO] error (retrying an identical
      handshake cannot succeed);
    - an inbound connection that fails the pre-shared-key handshake is
      rejected with a typed error frame, counted
      ([stats.auth_rejects]), and closed — the run is unaffected;
    - duplicate results (a reassignment race, or net-dup chaos) are
      dropped at the accounting table — a source is merged {e at most
      once};
    - a source that exhausts the worker-side supervision policy comes
      back as [Failed] and is excluded from the merge exactly like a
      quarantined source in the single-process driver ([progress.
      degraded], CLI exit 3);
    - when the optional budget expires, the acknowledged subset is
      merged ([progress.partial], CLI exit 124 — precedence over 3 via
      {!Omn_parallel.Supervise.exit_code});
    - when every worker has exhausted its respawns and sources remain,
      [run] returns a [Compute] error (CLI exit 1): results are never
      silently incomplete.

    The chaos schedule ({!Omn_robust.Faultgen.shard_event}) is
    interpreted here: after the scheduled number of acknowledged
    results the victim is killed, stopped, frame-corrupted,
    partitioned (link dropped, process kept — it must reconnect),
    slowed (frames delayed within a bound strictly below the heartbeat
    timeout — a slow link is never declared dead), duplicated
    (net-dup), joined by an impostor with a wrong key (auth-bad),
    grown (worker-join) or shrunk (worker-leave). All shard events are
    recorded in {!Omn_obs.Timeline} and counted in [Omn_obs.Metrics]
    under [shard.*] / [shard.net.*]. *)

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
  supervise : (int * float * float * int) option;
      (** worker-side policy (retries, backoff, backoff_max,
          jitter_seed); [None] = fail-fast (0 retries) *)
  ckpt_dir : string option;
      (** directory for per-worker shard checkpoints; created if missing *)
  budget_seconds : float option;
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
  on_partial : (Omn_temporal.Node.t -> Omn_core.Delay_cdf.partial -> unit) option;
      (** observe each acknowledged per-source partial (during the
          final merge) — the hook the sampled diameter
          estimator uses to collect partials from a sharded run;
          [None] = no observation. Must not mutate the computation. *)
  telemetry : bool;
      (** pull each worker's metrics snapshot and timeline segments
          ([Stats_pull]/[Stats_push]) every [stats_interval] seconds and
          once more before the final merge; results are bit-identical
          on or off (telemetry frames ride the same links but the merge
          is slot-ordered) *)
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
    budget, no chaos, no peers, no auth, Unix-domain listener, no
    telemetry (1 s pull interval when enabled), no stat endpoint. *)

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

val run :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  ?clock:(unit -> float) ->
  config ->
  Omn_temporal.Trace.t ->
  ( Omn_core.Delay_cdf.curves * Omn_core.Delay_cdf.progress * stats,
    Omn_robust.Err.t )
  result
(** Same computation and defaults as {!Omn_core.Delay_cdf.compute},
    executed across the worker fleet; the parameters are validated by
    {!Omn_core.Delay_cdf.plan} (typed [Usage] errors).
    [progress.ckpt_fallback] is always [false] (worker checkpoints have
    their own generations).
    [clock] is the budget time base (default wall clock). *)
