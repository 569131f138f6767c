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

    Each round extends the delta one of two ways, chosen once per round
    for all its nodes, and costs the lesser of the two:

    - a {e contact scan} visits all 2m contact directions in start order
      and extends the delta of each contact's node across it (below);
    - a {e point walk} extends each delta point along each pair of its
      node, through {!Omn_temporal.Trace.time_csr}'s pair index. It
      visits only the contacts a point can use, but pays a frontier
      check and a binary search per (point, pair).

    The round walks points when [4 * sum_u |D_u| * pairs(u) < 2m], the
    sum running over the nodes with a non-empty delta; 4 is the measured
    cost of a walk in scanned contacts (the constant's comment in
    [journey.ml] has the measurement). Late rounds, where a few points
    moved, walk; early rounds scan. The counter [journey.point_rounds]
    tallies the walked rounds among those [journey.rounds] counts.

    A point [(ld, ea)] of node [u] crosses a contact [[tb; te]] of a
    pair [(u, v)] when [ea <= te], into [(min ld te, max ea tb)]. The
    walk skips the pair outright when [v]'s frontier already dominates
    [(ld, ea)]; otherwise it binary-searches the pair's run for the
    first contact with [te >= ea], then offers each crossing in turn,
    passing over a contact whose successor starts no later than the
    crossing's arrival (the successor's crossing dominates it), and
    stops after the first contact with [te >= ld] (every later crossing
    arrives no earlier at the same departure bound). It never uses the
    pair rule below, whose proof needs a start-order sweep.

    Either way, a round's frontiers are the Pareto antichains of the
    previous round's and of every crossing of last round's delta: the
    same sets, in the same sorted order, whichever way the round ran, so
    per-hop frontiers and curves do not depend on the choice. (Only the
    sign of a zero time could: two equal points that differ in it keep
    whichever came first.) What does depend on it is the order of
    insertions, hence [round_info.changed], which counts the insertions
    in the order the round made them (a point displaced later in the
    same round still counts), the kept/pruned counters and the sweep's
    own counters.

    Per contact and per round the scan prunes the candidate set before
    frontier insertion: from a bi-sorted delta [D] and a contact [[tb; te]], only
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
    share of all candidates (53 % on the Infocom05 preset); the counter
    [journey.pair_repeats] tallies them. *)

type round_info = {
  hop : int;  (** the round just completed; descriptors use <= [hop] contacts *)
  frontiers : Frontier.t array;  (** per destination; index [source] holds the identity *)
  changed : int;
      (** number of descriptors inserted during this round, counted in
          the order the round inserted them: it depends on whether the
          round scanned contacts or walked points, the frontiers do not *)
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
