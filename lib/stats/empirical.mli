(** Weighted empirical distributions.

    The paper's success-probability curves (Figs. 9–11) are empirical CDFs
    over a continuum of observations: every (source, destination, start
    time) triple contributes, and start time ranges over an interval, so
    observations carry real-valued weights (Lebesgue measure of start
    times). Failures — pairs with no path — contribute mass at +infinity,
    which is why those CDFs saturate below 1. This module represents such
    distributions exactly. *)

type t

val of_array : float array -> t
(** Unit-weight samples. Values may include [infinity]. *)

val of_weighted : ?extra_infinite_mass:float -> (float * float) array -> t
(** [of_weighted pairs] builds a distribution from [(value, weight)]
    observations; weights must be non-negative, values may be [infinity].
    [extra_infinite_mass] adds failure mass without materialising points.
    Raises [Invalid_argument] if total mass is zero or a weight is
    negative. *)

val total_mass : t -> float
(** Total weight, including the infinite-value mass. *)

val cdf : t -> float -> float
(** [cdf t x] = P(X <= x), with the infinite mass in the denominator;
    hence [cdf t infinity < 1.] whenever some observations failed.
    For finite [x] the infinite mass never counts as a success. *)

val ccdf : t -> float -> float
(** [ccdf t x] = P(X > x) = 1 - cdf t x. *)

val quantile : t -> float -> float
(** [quantile t p] is the smallest x with cdf(x) >= p; [infinity] when the
    requested level sits inside the failure mass. Requires 0 <= p <= 1. *)

val mean_finite : t -> float
(** Mean of the finite part (conditional on success); [nan] if empty. *)

val variance_finite : t -> float
(** Variance of the finite part; [nan] if empty. *)

val min_finite : t -> float option
val max_finite : t -> float option

val count : t -> int
(** Number of stored support points (finite and infinite). *)

val support : t -> (float * float) array
(** Sorted (value, cumulative-weight-up-to-and-including) pairs — the raw
    staircase, useful for plotting. Infinite mass is not included. *)

val eval : t -> float array -> float array
(** [eval t grid] = CDF values on an ascending grid (single pass). *)
