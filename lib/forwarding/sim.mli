(** Event-driven simulation of forwarding protocols on a contact trace.

    The engine replays the trace's contacts chronologically; a protocol
    exchange can happen at any instant inside a contact interval, so when
    a node's state changes (it receives the message, or copies) its
    currently-active contacts are re-offered at that very instant —
    cascades across overlapping contacts (the long-contact behaviour of
    §3.1.3) are therefore simulated faithfully. For [Epidemic] this makes
    the simulation exact: delivery happens at the earliest arrival of a
    TTL-bounded time-respecting path (tested against
    {!Omn_baseline.Dijkstra.earliest_arrival_bounded}). *)

type outcome = {
  delivered : bool;
  delay : float;          (** [infinity] when not delivered *)
  hops : int;             (** hop count of the delivering copy; 0 = self *)
  transmissions : int;    (** copy transfers performed (incl. delivery) *)
  nodes_reached : int;    (** nodes that ever held the message (incl. source) *)
}

val run :
  Omn_temporal.Trace.t ->
  protocol:Protocol.t ->
  source:Omn_temporal.Node.t ->
  dest:Omn_temporal.Node.t ->
  t0:float ->
  deadline:float ->
  outcome
(** Deliver one message created on [source] at [t0], give up after
    [deadline] seconds. Raises [Invalid_argument] on bad nodes, a
    deadline that is not [>= 0.] (NaN included), [source = dest],
    non-positive spray copies or a negative epidemic TTL. *)

type stats = {
  protocol : Protocol.t;
  messages : int;
  delivered_ratio : float;
  mean_delay : float;         (** over delivered messages; [nan] if none *)
  mean_transmissions : float; (** over all messages *)
  mean_nodes_reached : float;
}

val evaluate :
  ?pool:Omn_parallel.Pool.t ->
  ?domains:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  Omn_stats.Rng.t ->
  Omn_temporal.Trace.t ->
  protocols:Protocol.t list ->
  messages:int ->
  deadline:float ->
  stats list
(** Common random messages (uniform source/destination pair and creation
    time, leaving [deadline] of headroom before the trace end) evaluated
    under every protocol. The workload is drawn from [rng] up front;
    each message simulation then runs independently on [pool] (or a
    temporary pool of [domains]), with outcomes reduced in message
    order — the statistics are bit-identical for every domain count.

    [progress] is called once per simulated message with the cumulative
    count over all protocols; it may run on any worker domain, so it
    must be domain-safe ({!Omn_obs.Progress} is).

    Raises [Invalid_argument], before any message is drawn, as {!run}
    does on a bad deadline or protocol, and on [messages < 1],
    [domains < 1] or a trace of fewer than two nodes. *)
