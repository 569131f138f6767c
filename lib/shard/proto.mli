(** Shard wire protocol: message types and their encoding.

    Messages are OCaml values Marshalled to strings and shipped inside
    {!Frame} frames, which add the length prefix, version byte and
    CRC-32. Marshal is safe here because both ends must be the {e same
    build} — same-host fleets re-execute the coordinator binary, and
    TCP peers prove build equality in the {!Auth} handshake before any
    [Proto] traffic — and the frame CRC rejects corrupted bytes before
    they reach [Marshal.from_string]. Decoding additionally catches
    {e every} exception defensively and returns [Error] (fuzz-pinned):
    a hostile or confused peer yields a typed drop, never a crash.

    Handshake: worker connects (authenticating first when a key is
    set) and sends {!from_worker.Hello} — [worker = -1] asks the
    coordinator to assign an id (dynamic join). The coordinator
    replies with {!to_worker.Job}, which names the trace by digest
    only; a worker that does not already hold those bytes (in memory
    from a previous session, or in its [--trace-cache] store) answers
    {!from_worker.Need_trace} and the coordinator ships one
    {!to_worker.Trace_data}. The worker then loads its shard
    checkpoint (if the fingerprint matches) and answers
    {!from_worker.Ready} with the number of cached results it resumed;
    only then does the coordinator stream [Compute] messages. *)

type job = {
  trace_digest : string;
      (** SHA-256 of the trace text ([Omn_temporal.Trace_io.to_string]
          form, [%.17g] floats, so the round-trip is bit-exact); the
          bytes travel separately in {!to_worker.Trace_data} and only
          when the worker misses its cache *)
  worker : int;  (** the id the coordinator assigned this connection *)
  max_hops : int;
  dests : int list option;
  grid : float array option;
  windows : (float * float) list option;
  supervise : Omn_parallel.Supervise.policy option;
      (** the run's whole supervision policy (a plain record, so it
          Marshals like the rest of the frame); the worker applies its
          retries, backoff and deadlines and reports a source that
          exhausts them as [Failed]. [None] means one attempt. The
          worker never aborts on [quarantine = false]: whether a
          [Failed] source is quarantined or fails the run is the
          coordinator's decision *)
  ckpt_path : string option;  (** per-worker shard checkpoint file *)
  fingerprint : string;
      (** digest of trace + parameters; a checkpoint from any other
          fingerprint is ignored on rejoin *)
  domains : int;  (** size of the worker's own domain pool *)
  telemetry : bool;
      (** enable the worker's local metrics registry and timeline so
          [Stats_pull] has something to report; never affects computed
          results (the PR 3/5 bit-identity contract) *)
}

type to_worker =
  | Job of job
  | Trace_data of { digest : string; text : string }
      (** full trace bytes, sent only in answer to [Need_trace]; the
          worker verifies [Sha256.string text = digest] before use *)
  | Compute of { slot : int; source : int }
      (** [slot] is the coordinator's id for this request (unique
          over a fleet session); the worker echoes it back untouched *)
  | Stats_pull of { t_coord : float }
      (** telemetry poll: report your metrics snapshot and new timeline
          events. [t_coord] is the coordinator's send stamp, echoed back
          in [Stats_push] so the coordinator can pair the reply with its
          own receive stamp for an NTP-style clock-offset estimate even
          with several pulls outstanding *)
  | Ping
  | Shutdown

type from_worker =
  | Hello of { worker : int }
      (** [worker = -1]: a joiner asking to be assigned an id *)
  | Need_trace of { digest : string }
      (** cache miss: please ship the bytes for this digest *)
  | Ready of { worker : int; resumed : int }
  | Result of { slot : int; source : int; partial : string }
      (** [partial] is [Delay_cdf.partial_to_string] output — opaque
          here *)
  | Failed of { slot : int; source : int; attempts : int; reason : string }
      (** worker-side supervision exhausted its retries on this source *)
  | Stats_push of {
      worker : int;
      t_coord : float;  (** echo of the pull's send stamp *)
      t_worker : float;  (** the worker's clock when it replied *)
      metrics : Omn_obs.Metrics.snapshot;
          (** full current snapshot (replaces the previous one
              coordinator-side — counters are monotonic) *)
      events : (int * Omn_obs.Timeline.entry) list;
          (** only timeline events recorded {e since the previous pull}
              (per-domain watermarks worker-side), worker-clock stamps *)
      dropped : (int * int) list;  (** cumulative per-domain ring drops *)
    }
      (** answer to [Stats_pull]; also sent once more right before
          [Leave] so the final merged artifacts see the complete run *)
  | Leave of { worker : int }
      (** graceful departure: stop assigning to me, reassign my
          in-flight sources, don't respawn me *)
  | Pong

val encode_to_worker : to_worker -> string
val decode_to_worker : string -> (to_worker, string) result
val encode_from_worker : from_worker -> string
val decode_from_worker : string -> (from_worker, string) result

val job_fingerprint :
  trace_text:string ->
  max_hops:int ->
  dests:int list option ->
  grid:float array option ->
  windows:(float * float) list option ->
  string
(** The parameter digest embedded in {!job} and in worker checkpoints:
    any change to the trace or to a result-affecting parameter changes
    it, so stale shard checkpoints can never leak into a run. *)
