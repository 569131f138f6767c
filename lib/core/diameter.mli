(** The (1 − ε)-diameter of a temporal network (§4.1).

    For hop bound [k] and delay budget [d], let [P_k(d)] be the empirical
    probability that a uniformly random (source, destination, creation
    time) admits a path of at most [k] hops delivering within [d]. The
    (1 − ε)-diameter is the least [k] such that for every budget [d]
    (including unlimited), [P_k(d) >= (1 - ε) * P_inf(d)] — i.e. [k] hops
    achieve at least a (1 − ε) fraction of the success rate of
    unrestricted flooding at every timescale. The paper uses ε = 0.01
    ("99 % of the success rate of flooding"). *)

type result = {
  diameter : int option;
      (** [None] when even [max_hops] does not reach the (1 − ε) bar —
          raise [max_hops] in that case. *)
  epsilon : float;
  curves : Delay_cdf.curves;
}

val of_curves : ?epsilon:float -> Delay_cdf.curves -> int option
(** Diameter from precomputed curves. [epsilon] defaults to 0.01. *)

val vs_delay : ?epsilon:float -> Delay_cdf.curves -> (float * int option) array
(** Fig. 12: for each budget on the grid, the least [k] whose success at
    that single budget reaches [(1 - ε) * P_inf]; [None] when no
    computed [k] does. Budgets where flooding itself has zero success
    report [Some 1]. *)

val measure :
  ?epsilon:float ->
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  Omn_temporal.Trace.t ->
  result
(** End-to-end: compute curves with {!Delay_cdf.compute}, then the
    diameter. [pool] / [domains] as in {!Delay_cdf.compute} — the
    result is independent of both. Raises [Invalid_argument] like
    {!Delay_cdf.compute} on a bad plan, and on [epsilon] outside
    (0,1). For checkpoints, budgets or sampling, run
    {!Driver.run} and apply {!of_curves}. *)
