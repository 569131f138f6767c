(** Closed-form results of §3: the phase transition of random temporal
    networks and the asymptotics of delay-optimal paths.

    Model: [n] nodes; during each time slot every pair is in contact
    independently with probability [λ/n] ([λ] = contact rate per node).
    Lemma 1 gives the expected number of source–destination paths under
    delay at most [τ ln n] and hop count at most [γ τ ln n]:
    [E(Π_n) = Θ(n^(-1 + τ (γ ln λ + F γ)))] where [F = h] in the
    short-contact case (at most one hop per slot) and [F = g] in the
    long-contact case (any number of hops per slot). *)

type contact_case = Short | Long

val h : float -> float
(** Binary entropy [h x = -x ln x - (1-x) ln (1-x)] on [0, 1];
    [h 0 = h 1 = 0]. Raises [Invalid_argument] outside [0, 1]. *)

val g : float -> float
(** [g x = (1+x) ln (1+x) - x ln x] on [0, ∞); [g 0 = 0]. *)

val exponent : contact_case -> lambda:float -> gamma:float -> float
(** The curve of Figs. 1–2: [γ ln λ + h γ] (short, γ ∈ [0,1]) or
    [γ ln λ + g γ] (long, γ >= 0). Requires [lambda > 0]. *)

val expected_paths_exponent :
  contact_case -> lambda:float -> tau:float -> gamma:float -> float
(** [-1 + τ (γ ln λ + F γ)] — the growth exponent of [E(Π_n)]. Negative
    means paths under constraints (τ, γ) almost surely do not exist for
    large [n]; positive means their expected number diverges. *)

val exponent_max : contact_case -> lambda:float -> float
(** Maximum of {!exponent} over γ: [ln (1+λ)] (short); [-ln (1-λ)] for
    λ < 1 and [+infinity] for λ >= 1 (long — the curve is unbounded). *)

val gamma_star : contact_case -> lambda:float -> float
(** Where the maximum is attained: [λ/(1+λ)] (short), [λ/(1-λ)] (long,
    λ < 1; [+infinity] at and above 1). *)

val tau_critical : contact_case -> lambda:float -> float
(** [1 / exponent_max]: below this delay coefficient no path exists,
    above it the expected path count diverges (Corollary 1). 0 in the
    long-contact case with λ >= 1 (arbitrarily small delays suffice). *)

val hop_coefficient : contact_case -> lambda:float -> float
(** Normalised hop count [k / ln n] of the delay-optimal path — the
    y-axis of Fig. 3: [λ / ((1+λ) ln (1+λ))] (short);
    [λ / ((1-λ) (-ln (1-λ)))] for λ < 1, [1 / ln λ] for λ > 1 and
    [+infinity] at λ = 1 (long, the singularity of Fig. 3). *)

val expected_delay : contact_case -> lambda:float -> n:int -> float
(** [tau_critical * ln n]: heuristic optimal delay in slots.
    Requires [n >= 2]. *)

val expected_hops : contact_case -> lambda:float -> n:int -> float
(** [hop_coefficient * ln n]. *)

val supercritical_gamma_interval :
  contact_case -> lambda:float -> tau:float -> (float * float) option
(** The interval [[γ1; γ2]] on which [exponent >= 1/τ] — the hop-count
    coefficients for which paths of delay [τ ln n] exist (§3.2.2).
    [None] when [τ < tau_critical] (sub-critical). Found by bisection to
    1e-12; in the long case with λ >= 1 the curve is unbounded so γ2 is
    capped only by the short-contact-free search bound 1e6. *)
