(** Persistent domain pool with deterministic fan-out/reduce.

    OCaml domains are heavyweight (each spawn forks a minor heap and
    registers with the stop-the-world machinery), so spawning per work
    chunk — as the first parallel driver in [Delay_cdf] did — wastes
    milliseconds per chunk and caps scaling. A {!t} spawns its worker
    domains once and reuses them across any number of {!map} calls.

    Determinism contract: {!map} assigns item [i]'s result to slot [i]
    of the output array regardless of which domain computed it or how
    many domains exist. A caller that merges the slots in index order
    therefore produces bit-identical results for every pool size,
    including 1 — parallelism changes wall-clock time only. All the
    parallel drivers in this repository ([Delay_cdf.compute],
    [Forwarding.Sim.evaluate], the [Omn_randnet] Monte-Carlo
    estimators) are built on this contract.

    {!map} and {!run} are written on {!feed}, the one work loop: it
    hands each result to a callback as soon as it is computed, so a
    caller that folds results as they come holds only those that
    arrive before their turn (the exact solve's
    [Delay_cdf.fold_state]), not a slot per item until the end. *)

type t
(** A pool of [domains - 1] worker domains plus the calling domain. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] workers ([domains]
    defaults to {!recommended}). Raises [Invalid_argument] if
    [domains < 1]. A pool with [domains = 1] spawns nothing and runs
    everything on the caller.

    Multi-domain pools also size every participating domain's minor
    heap up to 4M words (32 MB): OCaml 5 minor collections are
    stop-the-world across domains, and the default ~256k-word minor
    heap turns allocation-heavy workloads into a synchronisation
    treadmill that gets {e slower} as domains are added. The setting is never shrunk below what the process already
    uses, and a [domains = 1] pool leaves the GC untouched. *)

val domains : t -> int
(** Total parallelism, including the calling domain. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Jobs already queued complete
    first; calling {!map} on a shut-down pool raises
    [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] applies [f] to every element, spreading items over
    the pool's domains, and returns the results in input order. [f]
    must be safe to call from any domain and must not touch the pool:
    a nested [map] on the {e same} pool would deadlock when every
    worker is busy, so it is detected and raises [Invalid_argument]
    instead (nesting on a {e different} pool is allowed). Raises
    [Invalid_argument] after {!shutdown}. The first exception raised
    by [f] is re-raised on the caller after all items finish or are
    abandoned. *)

val feed : ?pool:t -> ?domains:int -> ('a -> 'b) -> 'a array -> (int -> 'b -> unit) -> unit
(** [feed f xs k] applies [f] to every element, in index order of
    dispatch, and calls [k i (f xs.(i))] on the domain that computed
    item [i], as soon as it is computed. Calls to [k] are serialized
    (never two at once) but come in completion order, which depends on
    scheduling: a caller that needs determinism makes its result
    independent of that order, as {!map} does by slot. Pool selection
    is {!run}'s: [pool] when given, otherwise the caller alone for
    [domains <= 1] (the default), or a temporary pool. [f] must not
    touch the pool (see {!map}); [k] runs under a lock and must not
    either. The first exception raised by [f] or [k] is re-raised on
    the caller after all items finish or are abandoned, and [k] is not
    called after it. *)

val run : ?pool:t -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Convenience front end for APIs that accept both an optional shared
    pool and a domain count: uses [pool] when given, otherwise runs
    sequentially for [domains <= 1] (the default) or inside a temporary
    [with_pool ~domains]. Same determinism contract as {!map} in every
    case. *)

(** {1 Domain-count selection} *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — what
    [--domains auto] resolves to. *)

type spec = Auto | Fixed of int
(** A requested domain count: a number, or [Auto] for {!recommended}. *)

val resolve : spec -> int
(** Raises [Invalid_argument] on [Fixed k] with [k < 1]. *)

val spec_of_string : string -> spec option
(** ["auto"] or a positive integer; [None] otherwise. *)

val spec_to_string : spec -> string
