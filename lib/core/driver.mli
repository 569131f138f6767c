(** The one driver: a {!Delay_cdf.plan}, per-source partials from an
    executor, and {!Delay_cdf.fold} over the completed ones.

    Policies are optional and compose in one loop:
    - {b executor}: the inline / domain-pool {!Delay_cdf.partial_of}
      (default), under a {!Omn_parallel.Supervise.policy}
      ([supervise]), or a caller's [partials_of] hook (the shard
      fleet's session, [Omn_shard.Coord.with_fleet]). Every executor
      returns one result per source; a failed source joins
      [progress.degraded] only when [supervise] quarantines, and fails
      the run otherwise;
    - {b checkpoint}: after every batch, the completed partials and the
      quarantined sources are written CRC-framed with generation
      rotation ({!Omn_robust.Checkpoint}); [resume] continues from
      them, falling back to the previous generation when the current
      one is corrupt. Both generations are removed when the run
      finishes;
    - {b budget}: stop after the first batch that exhausts
      [budget_seconds] (of [clock], default [Sys.time]), returning a
      labelled partial result over a near-uniform subset of the
      sources. At least one batch always completes, so repeated
      budgeted invocations with a checkpoint make progress;
    - {b report}: called after every batch with the run's progress (and
      the sampling state, when sampling) — purely observational;
    - {b sampling}: batches are rounds whose sample doubles until the
      bootstrap CI of the (1 − ε)-diameter is at most [ci_width] hops
      wide, or every source is sampled.

    Batches: without a checkpoint, a budget, a reporter or sampling,
    the whole plan runs as one batch (one {!Omn_parallel.Pool.run});
    with one of the first three, each batch holds [checkpoint_every]
    sources (default 8) in the plan's processing order.

    Contract: the curves depend only on which sources completed. A run
    that covers every source (killed and resumed or not, batched or
    not, sampled exhaustively or not, at any domain count) returns
    exactly {!Delay_cdf.compute}'s curves; a supervised run that
    quarantined sources returns {!Delay_cdf.compute}'s curves over the
    surviving sources. *)

type sampling = {
  sample : int;  (** first round's sample size; doubles every round *)
  ci_width : float;  (** stop once the CI is at most this many hops wide *)
  confidence : float;  (** nominal CI coverage *)
  bootstrap : int;  (** percentile resamples per round *)
  epsilon : float;  (** of the (1 − ε)-diameter *)
}
(** The sampling schedule and its bootstrap stop rule. The sample is a
    prefix of the plan's processing order, so the plan's [seed] picks
    it. *)

type sample = {
  diameter : int option;  (** point estimate over the sampled sources *)
  ci_lo : int option;
      (** bootstrap CI bounds; [None] = beyond [max_hops] (the CI is
          computed on a scale where "no diameter within [max_hops]"
          sits just above [max_hops], so [None] bounds are ordered) *)
  ci_hi : int option;
  width : float;  (** achieved CI width in hops; 0 when exhaustive *)
  rounds : int;  (** sampling rounds run, including resumed ones *)
  exhaustive : bool;  (** the sample covers every source *)
}

type outcome = {
  curves : Delay_cdf.curves;  (** {!Delay_cdf.fold} over the completed sources *)
  progress : Delay_cdf.progress;
  sample : sample option;  (** [Some] exactly when sampling *)
}

val run :
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?partials_of:
    (Omn_temporal.Node.t list ->
    (Delay_cdf.partial, Omn_parallel.Supervise.failure) result list) ->
  ?supervise:Omn_parallel.Supervise.policy ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?budget_seconds:float ->
  ?clock:(unit -> float) ->
  ?report:(Delay_cdf.progress -> sample option -> unit) ->
  ?sampling:sampling ->
  Delay_cdf.plan ->
  (outcome, Omn_robust.Err.t) result
(** Run [plan] under the given policies (see above). [pool] and
    [domains] are as in {!Delay_cdf.compute}; when no [pool] is given
    and [domains > 1], one pool is created for the whole run.
    [partials_of] receives each batch's sources and must return one
    result per source, in order: a {!Delay_cdf.source_partial}-
    equivalent partial, or the failure of a source the executor gave
    up on (after the retries of its own copy of [supervise], if any).

    The checkpoint embeds a fingerprint of the trace, the plan and the
    sampling schedule, computed only when [checkpoint] is given;
    resuming against anything else is a [Checkpoint] error, as is a
    file of another format.

    Typed errors: [Usage] for [domains < 1], [checkpoint_every < 1], a
    negative budget, a sampling parameter out of range, or [supervise]
    combined with [sampling]; [Compute] when a source task fails
    unsupervised (or with quarantine off), or [partials_of] returns
    the wrong number of results; [Io] for file-system failures. An
    exception [partials_of] raises as [Omn_robust.Err.Error] is
    returned as that error. *)

val set_perturb : (int option -> int option) option -> unit
(** Test hook: post-compose every diameter the sampling rule derives
    from a curve set — the point estimate {e and} each bootstrap
    replicate — with the given function. The statistical coverage
    suite uses this to verify its own power: a perturbed estimator
    must make the coverage assertion fail. [None] restores the
    identity. Not for production use. *)
