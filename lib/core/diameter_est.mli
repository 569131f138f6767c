(** Sampled (1-eps)-diameter with a bootstrap confidence interval.

    {!Diameter.measure} runs a journey from {e every} source — exact,
    but linear in the node count, which is the wall at millions of
    nodes. This estimator runs journeys from a seeded stratified
    sample of the sources instead: {!Driver.run} with a sampling
    schedule. The sample is a prefix of the plan's processing order
    ({!Delay_cdf.uniform_order}, every prefix a near-uniform subset),
    rotated by the seed so that distinct seeds draw genuinely
    different samples. The sample doubles round by round until the
    bootstrap percentile CI on the diameter is no wider than the
    target (or the sources are exhausted, or the time budget expires),
    reusing every partial already computed.

    Determinism and exactness contract:
    - a given (trace, parameters, seed) always produces the same
      estimate, CI and round count;
    - the curves are {!Delay_cdf.fold} over the sampled sources, so
      when the sample reaches {e all} sources they — and hence the
      diameter — are {e bit-identical} to {!Diameter.measure} and the
      CI collapses to the point ([exhaustive = true], zero width);
    - with [checkpoint] the sampled partials are saved after every
      round, and [resume] continues from them — a killed-and-resumed
      run is bit-identical to an uninterrupted one. *)

type estimate = {
  diameter : int option;  (** point estimate over the sampled sources *)
  epsilon : float;
  curves : Delay_cdf.curves;  (** curves of the {e sampled} sources *)
  ci_lo : int option;
      (** bootstrap CI bounds; [None] = beyond [max_hops] (the CI is
          computed on a scale where "no diameter within [max_hops]"
          sits just above [max_hops], so [None] bounds are ordered) *)
  ci_hi : int option;
  confidence : float;   (** nominal coverage of [ci_lo, ci_hi] *)
  ci_width : float;     (** achieved CI width in hops; 0 when exhaustive *)
  sampled : int;        (** sources actually sampled *)
  total : int;          (** sources available *)
  rounds : int;         (** tightening rounds run *)
  exhaustive : bool;    (** sample covered every source *)
  partial : bool;       (** budget expired before the width target *)
  ckpt_fallback : bool; (** resumed from the previous checkpoint generation *)
}

val estimate :
  ?epsilon:float ->
  ?max_hops:int ->
  ?sample:int ->
  ?seed:int ->
  ?ci_width:float ->
  ?confidence:float ->
  ?bootstrap:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?budget_seconds:float ->
  ?clock:(unit -> float) ->
  ?report:(round:int -> sampled:int -> total:int -> width:float -> unit) ->
  ?partials_of:(Omn_temporal.Node.t list -> Delay_cdf.partial list) ->
  Omn_temporal.Trace.t ->
  (estimate, Omn_robust.Err.t) result
(** [estimate trace] samples sources until the CI is at most
    [ci_width] hops wide (default 1.) at [confidence] (default 0.9).
    [sample] (default 64) is the initial sample size; it doubles per
    round. [bootstrap] (default 200) is the number of percentile
    resamples per round; the interval is unioned with the point
    estimate so it always contains it. [epsilon], [max_hops],
    [sources], [dests], [grid], [pool], [domains] and [windows] are as
    in {!Diameter.measure}; [checkpoint], [resume], [budget_seconds]
    and [clock] as in {!Driver.run} (at least one round always
    completes; [partial = true] marks a budget-truncated estimate).
    [report] is called after every round.

    [partials_of] overrides how per-source partials are computed: it
    receives a batch of sources and must return one
    {!Delay_cdf.source_partial}-equivalent partial per source, in
    order — a tracing harness plugs in here; the shard fleet runs
    {!Driver.run} directly. Default: {!Delay_cdf.source_partial} on
    the pool.

    Validation failures ({!Delay_cdf.plan}'s, [sample < 1],
    [ci_width <= 0], [epsilon] or [confidence] outside (0,1),
    [bootstrap < 1], ...) are typed [Usage] errors. The perturbation
    test hook is {!Driver.set_perturb}. *)
