(** Pareto frontiers of {!Ld_ea} descriptors, structure-of-arrays.

    This is the paper's "minimum amount of information" representation of
    all delay-optimal paths between one (source, destination) pair
    (condition (4) in §4.4): the set of descriptors none of which
    dominates another, kept sorted by strictly increasing [ld] — and,
    because the set is an antichain, strictly increasing [ea] as well.
    The delivery function of the pair reads directly off this list.

    Physically a frontier is two parallel unboxed [float array]s (one
    per coordinate) plus a size, so the insert hot path — two binary
    searches and a blit — runs over flat float memory and allocates
    nothing in the steady state: {!insert_pt} takes the coordinates as
    bare floats, and the backing arrays grow amortised-doubling and are
    reused in place ({!clear} resets without freeing). *)

type t

val create : unit -> t
(** Empty frontier. *)

val copy : t -> t

val insert : t -> Ld_ea.t -> bool
(** [insert t p] adds [p] unless an existing descriptor dominates it;
    descriptors that [p] dominates are removed. Returns [true] iff the
    frontier changed (i.e. [p] is now a member). Duplicate of an existing
    point returns [false]. O(size) worst case (array shift), O(log size)
    search. *)

val insert_pt : t -> ld:float -> ea:float -> bool
(** {!insert} without the descriptor box: the hot-path entry point used
    by [Journey]'s candidate emitter. Raises [Invalid_argument] on nan
    coordinates (the only validation {!Ld_ea.make} performed). *)

val clear : t -> unit
(** Empty the frontier, keeping the backing capacity — the reusable
    scratch-frontier primitive: a cleared frontier re-fills without
    allocating until it outgrows its previous high-water mark. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src], reusing [dst]'s backing
    arrays when they are large enough. *)

val size : t -> int
val is_empty : t -> bool

val to_array : t -> Ld_ea.t array
(** Fresh array, ascending in both coordinates. *)

val get : t -> int -> Ld_ea.t

val ld_arr : t -> float array
(** Physical [ld] storage. Only the first {!size} slots are meaningful;
    the array is owned by the frontier and must not be mutated, and it
    is invalidated by the next insert (growth may swap it out). For
    in-repository hot loops that must not allocate per point. *)

val ea_arr : t -> float array
(** Physical [ea] storage; same caveats as {!ld_arr}. *)

val lower_ld_from : t -> hint:int -> float -> int
(** [lower_ld_from t ~hint x] is the first index [i < size t] with
    [ld >= x], or [size t] when there is none or [x] is NaN. It searches
    from [hint] (clamped into [[0, size t]]), stepping 1, 2, 4, ...
    positions towards the answer and then binary-searching the last
    step, so it costs O(log distance) from the hint; any hint gives the
    same answer. For callers that query one frontier at nearby points
    over and over and keep the last answer as the next hint. *)

val mem_dominated : t -> Ld_ea.t -> bool
(** Would [insert] reject this point (some member dominates it, or it is
    already present)? Does not modify the frontier. *)

val first_ld_geq : t -> float -> Ld_ea.t option
(** Member with the smallest [ld >= t] — because [ea] is co-sorted this
    is also the best arrival among sequences still usable at time [t]. *)

val last_ea_leq : t -> float -> Ld_ea.t option
(** Member with the largest [ea <= x]. *)

val iter_ea_in : t -> lo:float -> hi:float -> (Ld_ea.t -> unit) -> unit
(** Visit members with [lo < ea <= hi], in ascending order. *)

val delivery : t -> float -> float
(** Optimal delivery time of a message created at [t] over all
    descriptors: Eq. (3) of the paper. [infinity] when no sequence
    remains usable. *)

val equal : t -> t -> bool

val check_invariant : t -> unit
(** Check strict bi-monotonicity and size/capacity consistency, raising
    [Invalid_argument] with a diagnostic on violation. Unlike an
    [assert], the check survives [-noassert]/release builds, so the
    property tests exercise exactly what production binaries would
    run. *)

val pp : Format.formatter -> t -> unit

(**/**)

val insert_scratch : t -> ld:float -> ea:float -> unit
(** Insert without touching the kept/pruned metrics — for bookkeeping
    frontiers (the [Journey] round deltas) whose traffic would distort
    the counters that measure real frontier work. *)

val count_rejected : int -> unit
(** Add [k] to the pruned counter: the tally of candidates a caller
    found dominated with {!insert_pt}'s own test and so never passed
    in. Keeps the kept/pruned totals equal to inserting every candidate
    — [Journey] flushes its inline rejections here once per round. *)
