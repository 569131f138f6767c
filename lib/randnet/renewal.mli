(** Renewal contact processes — the §3.4 generalisation.

    The paper's analysis assumes Bernoulli/Poisson contacts (light-tailed
    inter-contact times) and notes that measurements only support this at
    day/week timescales; it claims the results extend to renewal
    processes with finite-variance inter-contact laws, expecting a {e
    major impact on the delay} of optimal paths but {e a small one on
    their hop count}. This module provides pairwise renewal contact
    processes with pluggable inter-contact laws so the bench can test
    that conjecture empirically (experiment [renewal]). *)

type law =
  | Exponential  (** the Poisson baseline of §3.1.2 *)
  | Pareto of float
      (** heavy-tailed with exponent alpha > 1 (finite mean; infinite
          variance when alpha <= 2) — the shape measured in [2, 9] *)
  | Log_normal of float  (** sigma of the underlying normal; skewed but light *)
  | Uniform  (** on [0, 2 x mean]: nearly periodic — the bus-like case of [8] *)

val sample_gap : Omn_stats.Rng.t -> law -> mean:float -> float
(** One inter-contact time with the requested mean (> 0). *)

type params = {
  n : int;
  lambda : float;  (** contact rate per node per unit time, as in §3 *)
  horizon : float;
  law : law;
}

val generate : Omn_stats.Rng.t -> params -> Omn_temporal.Trace.t
(** Point-contact trace: each pair meets at the renewal instants of an
    independent process with mean gap [(n-1) / lambda]. The first epoch
    is drawn like every gap, from a uniformly random phase offset —
    adequate for horizon >> mean gap (documented simplification; exact
    stationarity would need the inspection-paradox forward-recurrence
    law per gap distribution). Raises [Invalid_argument] unless
    [n >= 2] and [lambda] and [horizon] are positive and finite. *)

type path_stats = {
  delay_mean : float;
  delay_p90 : float;
  hops_mean : float;
  runs_delivered : int;
  runs_total : int;
}

val optimal_path_stats :
  Omn_stats.Rng.t -> params -> runs:int -> path_stats
(** Over fresh networks: delay and hop count of the delay-optimal path
    from node 0 to node 1 for a message created at [0.1 x horizon]
    (burn-in so heavy-tailed processes are past their initial gap);
    non-deliveries within the horizon are excluded from the means. Hops
    are those of the minimum-hop delay-optimal path, computed with
    {!Omn_baseline.Dijkstra.earliest_arrival_bounded}. *)
