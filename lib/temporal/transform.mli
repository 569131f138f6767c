(** Trace surgery used by §6 of the paper (and by tests).

    All transforms are pure: they return a new trace and never mutate the
    input. Derived traces keep the source window unless stated. *)

val remove_random : rng:Omn_stats.Rng.t -> p:float -> Trace.t -> Trace.t
(** §6.1: drop each contact independently with probability [p].
    Requires [0 <= p <= 1]. *)

val keep_longer_than : float -> Trace.t -> Trace.t
(** §6.2: keep only contacts of duration strictly greater than the
    threshold (seconds). [neg_infinity] keeps every contact and
    [infinity] none; a NaN threshold raises [Invalid_argument]. *)

val keep_shorter_than : float -> Trace.t -> Trace.t
(** Complement of {!keep_longer_than} (duration <= threshold), with the
    same refusal of NaN. *)

val time_window : t_start:float -> t_end:float -> Trace.t -> Trace.t
(** Crop to a sub-window: contacts intersecting it are kept with their
    interval clipped to the window (a contact straddling the boundary was
    observable inside it); the result window is the given one. Used to
    extract "the second day of Infocom06". *)

val restrict_nodes : keep:(Node.t -> bool) -> Trace.t -> Trace.t * Node.t array
(** Keep contacts whose both endpoints satisfy [keep]. Node ids are
    re-densified; the second result maps new ids back to old ones. *)

val quantize : granularity:float -> Trace.t -> Trace.t
(** Snap interval bounds to the scanning grid (multiples of
    [granularity] from the trace start): [t_beg] rounds down, [t_end]
    rounds up — what a periodic scanner every [granularity] seconds would
    report for a sighting it detected. *)

val shift : float -> Trace.t -> Trace.t
(** Translate all times (window included) by a constant. *)

val merge : Trace.t -> Trace.t -> Trace.t
(** Union of contacts of two traces over the same node universe; the
    window is the hull. Node counts must agree. *)
