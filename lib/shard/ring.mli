(** Consistent-hash ring with virtual nodes and successor failover.

    Chord-style placement for the shard coordinator: each worker owns
    [vnodes] points on a 2{^60}-point ring (SHA-256 of
    ["worker:<w>:vnode:<v>"], truncated), and a source is owned by the
    first point at or clockwise-after its own hash. Failover is the
    successor walk: when the owning worker is dead, ownership passes to
    the next point whose worker is alive — so a worker's death moves
    only {e its} sources, and moves them to (roughly) uniformly spread
    successors rather than one unlucky neighbour.

    Placement is pure metadata here: it decides which worker {e
    computes} a source, never how results are merged, so the final
    curves are bit-identical at any worker count or death schedule (the
    driver folds per-source partials in ascending source position).

    Membership is dynamic: {!add} and {!remove} insert or delete one
    member's vnode points, leaving every other source→worker edge
    untouched — a join moves only the arcs the new member now owns, a
    leave moves only the departed member's arcs to their successors. *)

type t

val create : ?vnodes:int -> workers:int -> unit -> t
(** Members [0 .. workers-1], [vnodes] points each (default 64).
    Raises [Invalid_argument] on [workers < 1] or [vnodes < 1]. *)

val workers : t -> int
(** Current member count. *)

val members : t -> int list
(** Current member ids, sorted ascending. *)

val add : t -> int -> t
(** Ring with worker [w] as a member (no-op if already present); a
    member's point positions depend only on its id, so only the new
    member's arcs change owner. Raises [Invalid_argument] on a
    negative id. *)

val remove : t -> int -> t
(** Ring without worker [w] (no-op if absent). Raises
    [Invalid_argument] when removing the last member. *)

val assign : t -> alive:int list -> int -> int
(** [assign t ~alive source]: the owning worker among [alive]
    (successor walk past points owned by dead workers). Deterministic
    in [(t, alive, source)]. Raises [Invalid_argument] when [alive] is
    empty or names a non-member. *)

val map_sha256 : t -> alive:int list -> sources:int list -> string
(** Digest of the full assignment [source -> worker] over [sources],
    in list order — recorded in the run manifest so two runs can be
    checked for identical placement. *)
