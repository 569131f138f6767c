(** Trace ingestion: the one parser behind both trace readers.

    Lines are checked as they arrive, and the strict/repair/skip
    policies (see {!Trace_io.parse}) are applied record by record, with
    every whole-file decision (first violator, widened node count,
    event order) deferred to EOF. Two entry points share that state
    machine and differ only in when a record reaches the window / range
    / duplicate stage:
    - the streaming reader ({!load_result}, {!parse_chunks}, {!parse})
      feeds fixed-size chunks and passes each record on at once, so
      peak memory is the contact storage itself;
    - the in-memory reader ({!parse_whole}, i.e. {!Trace_io.parse})
      holds the records until EOF and then drains them in file order.
      It holds them flat: the line number and the four fields in five
      arrays (5 words a record), sized once from the text's line count.

    Record lines are scanned where they lie in the text: a string is
    built only for a header, an event, an error or a field the stdlib
    must convert. A field is a maximal run of bytes other than [' '],
    after [String.trim]'s whitespace is skipped at both ends of the
    line (so a tab inside a line is part of a field, which then fails
    to convert). A node id or a time of 1 to 18 decimal digits is read
    in place (a time by [float_of_int], which rounds as [strtod] does).
    Every other field goes to [int_of_string_opt] or
    [float_of_string_opt], so each field converts to what those give.
    Each load records one [ingest.parse] span (the scan and the record
    stage, and the streaming reader's reads); it closes before
    [trace.create].

    The streaming reader returns the byte-identical trace {e and}
    repair report as the in-memory one on any {e time-ordered,
    header-first} input — which is every file [Trace_io.save] or
    [Omn_mobility.Shard_sink] writes — under all three policies,
    including every error message, and at any chunk boundary. The
    differential suite in [test/test_stream.ml] pins both readers to a
    frozen reference parser. Two documented divergences, both on inputs
    a saved trace never contains:
    - a record whose (post-repair) [t_beg] precedes an already-emitted
      one is rejected with a typed [Contact] error under {e every}
      policy (the in-memory reader accepts any order);
    - a [nodes] or [window] header appearing {e after} records is
      accepted silently when it restates the effective value (shard
      concatenation) and is otherwise a [Header] error ([Strict]) or
      an [Ignored_header] event (the in-memory reader is last-wins).

    Shard indexes: a file whose first line is [# omn-shards 1] lists
    one shard filename per non-comment line (relative to the index's
    directory); the shards are streamed in order as one logical trace,
    line numbers continuing across files. *)

val load_result :
  ?policy:Omn_robust.Repair.policy ->
  string ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** Stream a file (or shard index) into a {!Trace.t} in 64 KiB chunks.
    [policy] defaults to [Strict]. IO failures come back as [Io]
    errors. *)

val is_shard_index : string -> bool
(** The file's first line is [# omn-shards 1] (surrounding blanks
    ignored): the test {!load_result} makes to read it as a shard
    index. [false] for a file that cannot be read. *)

val parse_chunks :
  ?policy:Omn_robust.Repair.policy ->
  ?file:string ->
  string list ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** Parse text delivered as arbitrary chunks (boundaries may fall
    anywhere, including inside a record): the result only depends on
    the concatenation. Shard-index magic is not interpreted here — a
    [# omn-shards 1] line is a free comment, exactly as in
    [Trace_io.parse]. *)

val parse :
  ?policy:Omn_robust.Repair.policy ->
  ?file:string ->
  string ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** [parse_chunks] on a single chunk. *)

val parse_whole :
  ?policy:Omn_robust.Repair.policy ->
  ?file:string ->
  string ->
  (Trace.t * Omn_robust.Repair.report, Omn_robust.Err.t) result
(** The in-memory reader: the records that pass the line checks are
    held until EOF, then drained in file order through the window /
    range / duplicate stage with one duplicate table for the whole
    file. Records may come in any order and headers are last-wins. *)
