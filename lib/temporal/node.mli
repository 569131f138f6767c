(** Node (device) identifiers: the dense integers [0 .. n-1] of a
    temporal network. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
