(** Shared plumbing for the paper-reproduction experiments.

    Every experiment module exposes [name], [description] and
    [run ?quick fmt]; [quick] shrinks workloads for smoke tests. The
    registry at {!Registry.all} is what [bench/main.exe] iterates. *)

val named_delays : (string * float) list
(** The paper's landmark delays (2 min ... 1 week). *)

val delay_grid : float array

val preset_curves :
  ?max_hops:int -> Omn_mobility.Presets.info -> Omn_core.Delay_cdf.curves
(** Curves over the preset's internal devices (sources and
    destinations). *)

val trace_curves :
  ?max_hops:int ->
  ?endpoints:Omn_temporal.Node.t list ->
  Omn_temporal.Trace.t ->
  Omn_core.Delay_cdf.curves

val success_at : Omn_core.Delay_cdf.curves -> float array -> float -> float
(** [success_at curves row delay]: row value at the grid point closest
    below-or-equal to [delay]. *)

val pp_diameter : Format.formatter -> int option -> unit
(** ["5"] or [">K"]. *)

val hop_row : Omn_core.Delay_cdf.curves -> int -> float array
(** Success curve for hop bound [k] (1-based); raises if out of range. *)

val table :
  Format.formatter ->
  header:string list ->
  rows:string list list ->
  unit
(** Aligned plain-text table. *)
