(** Path descriptors: (last departure, earliest arrival) pairs.

    §4.2 of the paper shows that, for scheduling purposes, a valid
    sequence of contacts between two devices is fully described by

    - [ld] (*last departure*) [= min over contacts of t_end]: the latest
      time a message may leave the source and still ride this sequence;
    - [ea] (*earliest arrival*) [= max over contacts of t_beg]: the
      earliest time it can reach the destination.

    A message created at [t <= ld] is delivered at [max t ea] (facts (ii)
    and (iii)); when [ea <= ld] the sequence is a window of contemporaneous
    connectivity, when [ea > ld] the message must be stored at
    intermediate devices. *)

type t = { ld : float; ea : float }

val make : ld:float -> ea:float -> t
(** Plain constructor (any floats except nan are legal — infinite bounds
    appear in the identity descriptor). *)

val identity : t
(** Descriptor of the empty sequence from a node to itself:
    [ld = +inf], [ea = -inf]. Left and right unit of {!concat}. *)

val dominates : t -> t -> bool
(** [dominates p q]: [p] departs no earlier and arrives no later —
    [p.ld >= q.ld && p.ea <= q.ea]. A reflexive partial order. *)

val can_concat : t -> t -> bool
(** [can_concat p q]: fact (iv) — the compound sequence [p] then [q] is
    valid iff [p.ea <= q.ld]. *)

val concat : t -> t -> t option
(** [concat p q] is [Some { ld = min; ea = max }] when {!can_concat},
    [None] otherwise. Associative where defined. *)

val delivery : t -> float -> float
(** [delivery p t]: arrival time of a message created at [t] using this
    sequence — [max t p.ea] if [t <= p.ld], [infinity] otherwise. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on [(ld, ea)]. *)

val pp : Format.formatter -> t -> unit
