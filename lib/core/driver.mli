(** The one driver: a {!Delay_cdf.plan}, per-source partials from an
    executor, and a fold over the completed ones: a
    {!Delay_cdf.fold_state} that merges each partial as it completes
    (every unsampled run), or {!Delay_cdf.fold} over the completed
    list (the sampling rule).

    Policies are optional and compose in one loop:
    - {b executor}: the inline / domain-pool {!Delay_cdf.partial_of}
      (default) or a caller's [partials_of] hook (the shard fleet's
      session, [Omn_shard.Coord.with_fleet]). Every executor runs each
      source once and returns one result per source, a raised
      exception as a {!Delay_cdf.failure};
    - {b failure}: the driver settles each batch in batch order, and
      the first failed source fails the run with one [Compute] error
      that names it. A partial is a pure function of the trace and the
      plan, and {!Journey.run} reaches its fixpoint within [n_nodes]
      rounds, so a source fails only through a bug or resource
      exhaustion;
    - {b checkpoint}: after every batch, the completed partials are
      written CRC-framed with generation rotation
      ({!Omn_robust.Checkpoint}, magic [omn-ckpt 6]);
      [resume] continues from them, falling back to the previous
      generation when the current one is corrupt. Both generations are
      removed when the run finishes;
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
    the whole plan runs as one batch (one {!Omn_parallel.Pool.feed});
    with one of the first three, each batch holds the next
    [checkpoint_every] sources (default 8) of the plan's processing
    order. Every executor is handed a batch in ascending position.

    What a run holds. An unsampled run hands each partial to the fold
    state as soon as it completes (the pool's callback, or the fleet's
    batch once it has returned whole), which merges it when every lower
    position has been merged and holds it until then. The list of
    completed partials, in batch order, is kept only for what needs all
    of them: a checkpoint writes it, and the bootstrap resamples it. So
    a plain run holds about one partial per domain; a batched run
    without a checkpoint holds those ahead of the lowest missing
    position; a checkpointed or sampled run holds every completed one.
    A fleet's coordinator receives each batch whole before the fold
    sees it. The gauge [delay_cdf.partials_held], set once per run,
    records the most partials held at once.

    Contract: the curves depend only on which sources completed. A run
    that covers every source (killed and resumed or not, batched or
    not, sampled exhaustively or not, at any domain count) returns
    exactly {!Delay_cdf.compute}'s curves.

    This module also points {!Omn_robust.Retry_io.on_retry} (counter
    [resilience.io_retries], timeline [Io_retry]) and
    {!Omn_robust.Checkpoint.on_rotate} (timeline [Ckpt_rotate]) at the
    observability registry when it is linked. *)

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
    (Omn_temporal.Node.t list -> (Delay_cdf.partial, Delay_cdf.failure) result list) ->
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
    equivalent partial, or the failure of a source whose computation
    raised.

    The checkpoint embeds a fingerprint of the trace, the plan and the
    sampling schedule, computed only when [checkpoint] is given;
    resuming against anything else is a [Checkpoint] error, as is a
    file of another format.

    Typed errors: [Usage] for [domains < 1], [checkpoint_every < 1], a
    negative budget or a sampling parameter out of range; [Compute]
    for the first failed source of a batch (["source task failed:
    source N: REASON"]), or when [partials_of] returns the wrong number
    of results; [Io] for file-system failures. An
    exception [partials_of] raises as [Omn_robust.Err.Error] is
    returned as that error. *)

val set_perturb : (int option -> int option) option -> unit
(** Test hook: post-compose every diameter the sampling rule derives
    from a curve set — the point estimate {e and} each bootstrap
    replicate — with the given function. The statistical coverage
    suite uses this to verify its own power: a perturbed estimator
    must make the coverage assertion fail. [None] restores the
    identity. Not for production use. *)
