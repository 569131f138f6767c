(** Line-rate-limited progress reporting for long sweeps.

    Prints at most one update per half second to stderr:
    carriage-return style on a tty, one plain line per update
    otherwise (so logs stay readable). Purely
    cosmetic — never touches the metrics registry and works whether or
    not metrics are enabled. Safe to update from multiple domains
    (pool workers report concurrently); [set] keeps the maximum, so
    out-of-order completion reports never move the bar backwards.

    When a [total] is known the line carries an ETA derived from an
    exponentially-weighted moving average of the completion rate, and
    every line appends [ckpt-fallback] once a checkpoint falls back to
    its previous generation, so an operator watching a long sweep sees
    it as it happens rather than in the final summary. *)

type t

val create : ?total:int -> label:string -> unit -> t

val set : t -> int -> unit
(** Raise the completed count to [k] (monotone); prints if the rate
    limit allows. *)

val step : ?n:int -> t -> unit
(** Advance by [n] (default 1). *)

val set_fallback : t -> unit
(** Mark that a checkpoint load fell back to the previous generation;
    sticky for the rest of the bar's life. *)

val finish : t -> unit
(** Force a final line (and terminate the tty line). Idempotent. *)
