(** Empirical success probability of optimal forwarding (Figs. 9–11).

    The paper evaluates, for a uniformly random (source, destination,
    message-creation time), the probability that flooding restricted to
    [k] hops delivers within a delay budget [d]. Because creation time
    ranges over a continuum, this is an integral, and the frontier
    representation makes it exact: the success measure of one pair is a
    sum of piecewise-linear-in-[d] segment contributions
    (see {!Delivery.success_measure}). The accumulator below aggregates
    those contributions over pairs onto a fixed budget grid in
    O(log |grid|) per frontier descriptor, using difference arrays.
    Each descriptor places its segment with two searches of the grid:
    a query at or below the smallest budget, or above the largest,
    answers at once, and the others run a fixed halving loop whose
    step is a mask of one float comparison, so the search takes no
    data-dependent branch.
    Accumulating a live frontier ({!add_pair_frontier}) allocates
    nothing per descriptor: a pair costs two boxed floats (the stored
    [total] and infinite-budget mass), whatever its frontier's
    length. *)

type t

val create : grid:float array -> t
(** [grid]: ascending, non-negative, finite delay budgets (seconds).
    Raises [Invalid_argument] otherwise. *)

val grid : t -> float array

val add_pair : t -> t_start:float -> t_end:float -> Ld_ea.t array -> unit
(** Accumulate one (source, destination) pair whose frontier snapshot is
    given, with creation times uniform on [[t_start, t_end]]. The pair
    contributes mass [t_end - t_start] to the denominator whether or not
    it ever succeeds. Raises [Invalid_argument] on a non-finite or
    reversed window, or on a descriptor with a NaN coordinate. *)

val add_pair_frontier : t -> t_start:float -> t_end:float -> Frontier.t -> unit
(** {!add_pair} reading a live frontier's structure-of-arrays storage in
    place — same accumulation, same float-operation order (so results
    stay bit-identical), no descriptor snapshot. The whole-trace driver
    uses this on the hot path. Raises [Invalid_argument] on a
    non-finite or reversed window. *)

val success : t -> float array
(** [success t].(i) = empirical P(optimal delay <= grid.(i)). *)

val success_inf : t -> float
(** Empirical P(optimal delay < infinity) — the success rate of
    unrestricted flooding with unlimited time. *)

val total_mass : t -> float
(** Denominator accumulated so far (pairs x window length). *)

val merge_into : dst:t -> t -> unit
(** Fold another accumulator built on the {e same} grid into [dst] —
    accumulation distributes over pair partitions, which is what makes
    the parallel driver below possible. Raises [Invalid_argument] on
    grid mismatch. *)

(** {1 Plan, per-source partials, fold}

    Every driver of this library — {!compute}, [Driver.run] (checkpoint,
    budget, progress, sampling) and the shard coordinator —
    computes the same thing: a validated {!plan}, one {!partial} per
    source, and a fold over the completed partials. The fold merges in
    ascending {e position} in the caller's source list, whatever order
    the partials completed in, so curves depend only on which sources
    completed: bit-identical across domain counts, worker counts,
    checkpoint/resume, batching and sampling.

    What a solve holds, and for how long. A partial is [max_hops + 1]
    accumulators of about 4 |grid| words each (6.3 k words at 14 hops
    on a 100-point grid). {!fold} takes every partial at once;
    the {!fold_state} that {!compute} and every unsampled [Driver.run]
    use merges each partial as soon as every lower position has been
    merged, and holds only those that arrive before their turn. Sources
    are dispatched in ascending position, so a plain solve holds about
    one partial per domain; the gauge [delay_cdf.partials_held] records
    the most a run held at once. {!partial_of} runs its journeys in one
    {!Journey.workspace} per domain, so the frontiers are allocated
    once per domain, not once per source. *)

type curves = {
  grid : float array;
  hop_success : float array array;
      (** [hop_success.(k-1)] = success curve under hop bound [k],
          for k = 1 .. max_hops. *)
  hop_success_inf : float array;  (** same, at unlimited delay *)
  flood_success : float array;    (** success curve of unrestricted flooding *)
  flood_success_inf : float;
  max_rounds_used : int;  (** largest fixpoint round over all sources *)
}

type partial
(** One source's contribution to the final curves. *)

type plan = private {
  trace : Omn_temporal.Trace.t;
  max_hops : int;
  grid : float array;
  windows : (float * float) list;
  is_dest : bool array;  (** indexed by node: counts as a destination *)
  sources : Omn_temporal.Node.t array;
      (** the caller's source list; index = merge position *)
  order : int array;
      (** processing order, as positions: {!uniform_order}, rotated by
          [seed] *)
  seed : int;
}

val plan :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  ?seed:int ->
  Omn_temporal.Trace.t ->
  (plan, Omn_robust.Err.t) result
(** Validate a run's parameters. Defaults: every node as a source and
    as a destination (all ordered pairs with [source <> dest]),
    [max_hops] 10, [grid] {!Omn_stats.Grid.delay_default}, creation
    times uniform over the trace window, [seed] 0. [dests] restricts
    which destinations count as observations — e.g. only the
    experimental devices of a trace that also records external ones.
    [windows] restricts message-creation times to a union of intervals
    (e.g. day-time hours only, as in the paper's §5.3.1 aside).

    A typed [Usage] error names the bad value: [max_hops < 1], an
    empty source or window list, a source or destination outside
    [[0, n_nodes)], a window with a non-finite bound, a reversed
    window, or a grid {!create} rejects. *)

val partial_of : plan -> Omn_temporal.Node.t -> partial
(** The contribution of one source of the plan: run {!Journey.run} and
    accumulate its frontiers per hop bound and for flooding. Safe to
    call from any domain; the journey runs in the calling domain's
    workspace (domain-local storage), which stays allocated for the
    domain's life and serves its next call, whatever the plan. *)

val fold : plan -> (int * partial) list -> curves
(** Fold [(position, partial)] pairs into curves, merging in ascending
    position (a stable sort, so repeated positions — bootstrap
    resamples — merge in list order). Raises [Invalid_argument] on a
    partial of another [max_hops] or grid. *)

type fold_state
(** {!fold} one partial at a time, in any arrival order. *)

val fold_state : plan -> fold_state

val fold_add : fold_state -> int -> partial -> unit
(** [fold_add st position p]: merge [p] now if every lower position
    has been merged, then every held partial whose turn that makes;
    otherwise hold [p] until its turn. Not thread-safe: callers
    serialize it ({!Omn_parallel.Pool.feed} does). Raises
    [Invalid_argument] on a position outside the plan's source list or
    one already added, and as {!fold} does. *)

val fold_finish : fold_state -> curves
(** Merge the held partials in ascending position, skipping the
    positions that never arrived, and return the curves: bit for bit
    {!fold} over every [(position, partial)] added, whatever the
    arrival order, for a complete run or any subset of its sources (a
    budget-truncated run). The state is spent afterwards. *)

val most_held : fold_state -> int
(** The most partials the state held at once, counting the one being
    added: 1 when every partial arrived in its turn. *)

val compute :
  ?max_hops:int ->
  ?sources:Omn_temporal.Node.t list ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?windows:(float * float) list ->
  Omn_temporal.Trace.t ->
  curves
(** {!plan}, one {!partial_of} per source in a single
    {!Omn_parallel.Pool.feed} in ascending position, each folded by a
    {!fold_state} as it completes — the whole plan, no policies; sets
    the [delay_cdf.partials_held] gauge. [pool] runs the per-source
    journeys on a shared pool; otherwise [domains > 1] uses a temporary pool of that many OCaml
    domains. Either way the curves are bit-identical to the sequential
    run. Raises [Invalid_argument] with the {!plan} error's message,
    or when [domains < 1]. *)

val source_partial :
  ?max_hops:int ->
  ?dests:Omn_temporal.Node.t list ->
  ?grid:float array ->
  ?windows:(float * float) list ->
  Omn_temporal.Trace.t ->
  Omn_temporal.Node.t ->
  partial
(** {!partial_of} for a one-source plan with the same defaults as
    {!compute} — what a shard worker computes. Raises
    [Invalid_argument] with the {!plan} error's message. *)

val partial_to_string : partial -> string
val partial_of_string : string -> (partial, string) result
(** Magic-prefixed Marshal payload — floats round-trip bit-exactly.
    Only payloads produced by the same binary are safe to decode; the
    magic rejects everything else cheaply. *)

val uniform_order : Omn_temporal.Node.t list -> Omn_temporal.Node.t list
(** The deterministic stride order sources are {e processed} in when a
    run is batched, sampled or sharded: every prefix is a near-uniform
    sample of the whole list, so a budget-truncated run or a sample is
    a fair subset. It fixes only which sources complete first; the
    merge order is always {!fold}'s ascending position. *)

type failure = {
  source : Omn_temporal.Node.t;  (** the source whose {!partial_of} raised *)
  reason : string;  (** [Printexc.to_string] of its exception *)
}
(** A source an executor ran once and that raised: [Driver.run] fails
    the run with it. Computing it again raises again: a partial is a
    pure function of the trace and the plan. *)

type progress = {
  sources_done : int;  (** sources completed *)
  sources_total : int;
  partial : bool;  (** the budget expired before the run finished *)
  ckpt_fallback : bool;
      (** resume found the current checkpoint generation corrupt (or
          rejected) and restarted from [*.prev] *)
}
(** How far a run got — see [Driver.run] and the shard coordinator. *)
