(** Exhaustive computation of delay-optimal paths (§4.4 of the paper).

    For one source, [run] computes the Pareto frontier of (LD, EA)
    descriptors towards {e every} destination, for {e every} hop bound,
    in hop-indexed rounds:

    - round 1 holds the direct contacts;
    - round k+1 extends every descriptor discovered at round k by one
      contact, using the concatenation rule (fact (iv)), and inserts the
      results in the destinations' frontiers;
    - rounds stop at a fixpoint (no frontier changed), which the small
      diameter of opportunistic networks makes fast — or at [max_rounds].

    The rounds are {e semi-naive}: only descriptors newly inserted during
    the previous round are extended, which is sound because frontiers
    only improve (a candidate dominated once is dominated forever), and
    complete because optimal substructure holds under domination: if a
    sequence [s = s' . e] is optimal, any frontier descriptor dominating
    [s'] concatenates with [e] (its EA is no larger) and the compound
    dominates [s].

    Per contact and per round the candidate set is pruned before frontier
    insertion: from a bi-sorted delta [D] and a contact [[tb; te]], only
    (a) the first [P] in [D] with [ld >= te] (candidate [(te, max ea tb)]),
    (b) the last [P] with [ea <= tb] and [ld < te] (candidate [(ld, tb)]),
    (c) every [P] with [tb < ea <= te] and [ld < te] (candidate
    [(ld, ea)]) can be undominated. The sweep meets contacts in start
    order, so the index of (b) is a per-node cursor that only moves
    forward within a round; (c) is a short scan on from it, and the
    index of (a) is searched for only when that scan ends on a point
    with [ld >= te]. A contact therefore costs amortised O(1) plus its
    candidates, rather than [O(|D|)]. Each candidate costs one search of
    the destination frontier, where most are found dominated and dropped
    without being inserted. The search starts where the destination's
    previous check ended ({!Frontier.lower_ld_from}) and steps 1, 2,
    4, ... positions towards the answer, so it costs O(log distance)
    rather than O(log |frontier|): consecutive checks on one
    destination land a few positions apart (3.6 on average on the
    Infocom05 preset, on frontiers of ~285 points). A case (b) candidate
    costs O(1) instead when the pair's previous contact
    ({!Omn_temporal.Trace.time_csr}[.csr_prev]) already offered a point
    dominating it, i.e. when [P]'s [ea] and [ld] are both at most that
    contact's end. Pairs that meet again and again make this a large
    share of all candidates (63 % on the Infocom05 preset); the counter
    [journey.pair_repeats] tallies them. *)

type round_info = {
  hop : int;  (** the round just completed; descriptors use <= [hop] contacts *)
  frontiers : Frontier.t array;  (** per destination; index [source] holds the identity *)
  changed : int;  (** number of descriptors inserted during this round *)
}

type strategy =
  | Semi_naive
      (** extend only the descriptors discovered in the previous round —
          the algorithm described above (default) *)
  | Full_recompute
      (** ablation: re-extend every frontier descriptor each round; same
          results, cost grows with the whole frontier instead of the
          delta (see the timing bench) *)

val run :
  ?max_rounds:int ->
  ?strategy:strategy ->
  ?on_round:(round_info -> unit) ->
  Omn_temporal.Trace.t ->
  source:Omn_temporal.Node.t ->
  Frontier.t array * int
(** [run trace ~source] returns the fixpoint frontiers (delay-optimal
    paths of unbounded hop count) and the number of rounds executed.
    [on_round] fires after every round including the last (the fixpoint
    round, which has [changed = 0], is not reported as a round).
    [max_rounds] (default 1024) is a safety valve; reaching it without a
    fixpoint raises [Failure]. The frontiers handed to [on_round] are
    live views — snapshot with {!Frontier.to_array} or {!Frontier.copy}
    if kept. *)

val frontiers_at_hops :
  Omn_temporal.Trace.t -> source:Omn_temporal.Node.t -> max_hops:int -> Frontier.t array
(** Frontiers restricted to paths of at most [max_hops] contacts
    (runs [min max_hops fixpoint] rounds). *)

val delivery_to :
  Omn_temporal.Trace.t ->
  source:Omn_temporal.Node.t ->
  dest:Omn_temporal.Node.t ->
  ?max_hops:int ->
  unit ->
  Delivery.t
(** Convenience: the delivery function of one pair. *)
