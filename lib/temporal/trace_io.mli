(** Plain-text trace serialisation.

    Format (one record per line, [#] comments allowed):
    {v
    # omn-trace 1
    # name <label>
    # nodes <n>
    # window <t_start> <t_end>
    <a> <b> <t_beg> <t_end>
    ...
    v}
    Times are seconds (floats). The header lines are written by
    {!save}; {!load} accepts files without them by inferring the node
    count and window from the records.

    Writing is byte-exact: {!save}, {!output} and {!to_string} write
    what [Printf] would print for the header lines and, per contact in
    start order, ["%d %d %.17g %.17g\n"] ([%.17g] reads back as the
    same double). This module is the only writer of the format, and it
    does not go through [Printf]: ids, and times that are integers of
    magnitude below 10^15 other than -0, are printed by a digit loop
    (the digits [%.17g] prints for them); every other time goes
    through the C conversion [Printf] itself calls for [%.17g].

    This is the in-memory reader: it reads the whole text, so records
    may come in any order and [nodes] / [window] headers are last-wins.
    It runs {!Trace_stream}'s parser ({!Trace_stream.parse_whole});
    [Trace_stream.load_result] streams the same format in bounded
    memory. {!parse} / {!load_result} are policy-driven and return
    typed errors plus a repair report; {!load} and {!of_string} are
    strict and raise [Failure] with a line-numbered message. *)

val save : Trace.t -> string -> unit
(** Write to a file path {e crash-safely}: the content goes to a temp
    file in the same directory which is then renamed over the target,
    so an interrupted save never leaves a torn trace file. Raises
    [Sys_error] on IO failure. *)

val load : string -> Trace.t
(** Read from a file path, strictly. Raises [Failure] with a
    line-numbered message on malformed input; [Sys_error] on IO
    failure. *)

val parse :
  ?policy:Omn_robust.Repair.policy ->
  ?file:string ->
  string ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** Parse a trace text under an ingestion policy (default
    [Strict]). [Strict] rejects the first problem with a typed,
    line-numbered error; [Repair] clamps out-of-window contacts to the
    declared window, swaps reversed intervals and reversed window
    headers, widens a too-small declared node count, merges exact
    duplicate records, and drops what cannot be fixed (self-loops,
    non-finite times, unparsable lines); [Skip] drops every bad record
    and changes nothing else. Under [Repair] and [Skip] the returned
    report lists one event per deviation from the input. [file] is only
    used to locate error messages. *)

val load_result :
  ?policy:Omn_robust.Repair.policy ->
  string ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** {!parse} from a file path; IO failures come back as [Io] errors
    instead of raising. *)

val output : out_channel -> Trace.t -> unit

val to_string : Trace.t -> string
(** The exact bytes {!save} and {!output} write. *)

val of_string : string -> Trace.t
