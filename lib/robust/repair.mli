(** Lenient-ingestion vocabulary: policies, repair actions, reports.

    Real contact traces are dirty — duplicate sightings, records outside
    the declared window, truncated logs. A {!policy} decides what a
    parser does with a bad record; every deviation from the input is
    logged as an {!event} so the resulting {!report} is a complete,
    machine-readable account of what was repaired or dropped. *)

type policy =
  | Strict  (** reject the first problem with a typed error *)
  | Repair  (** fix what can be fixed (clamp, swap, merge), drop the rest *)
  | Skip  (** drop every bad record, change nothing else *)

val policy_name : policy -> string

type action =
  | Dropped_malformed  (** unparsable line or field *)
  | Dropped_self_loop
  | Dropped_nonfinite  (** NaN or infinite contact time *)
  | Dropped_negative_id
  | Dropped_out_of_range  (** node id beyond the declared count (Skip) *)
  | Dropped_out_of_window
  | Clamped_to_window  (** contact intersected with the declared window *)
  | Swapped_interval  (** reversed [t_beg > t_end] fixed by swapping *)
  | Swapped_window  (** reversed window header fixed by swapping *)
  | Merged_duplicate  (** exact duplicate record merged away *)
  | Ignored_header  (** unreadable header directive treated as a comment *)
  | Widened_node_count  (** declared node count raised to fit the records *)

type event = { line : int; action : action; detail : string }

type report = {
  policy : policy;
  total_lines : int;  (** non-blank input lines *)
  kept : int;  (** contacts in the resulting trace *)
  events : event list;  (** ascending line order *)
}

val n_dropped : report -> int
val n_repaired : report -> int

val is_clean : report -> bool
(** No repair events: the input was already well-formed. *)

val pp : Format.formatter -> report -> unit
(** Machine-readable report: a [repair-report ...] summary line followed
    by one [repair line=N action=NAME detail="..."] line per event,
    [NAME] a stable kebab-case action name such as
    ["dropped-self-loop"]. *)
