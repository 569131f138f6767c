(** Disk-emitting trace generation: time-ordered shards + index.

    The in-memory generators build the whole contact list before
    [Trace.create] sorts it — a dead end at millions of nodes. A sink
    accepts contacts in {e any} order (generators emit pair by pair)
    and spills each to the shard owning its [t_beg] time slice, as one
    fixed 32-byte binary record (both ids, then the IEEE bits of both
    times, little-endian). {!finish} then takes one shard at a time:
    it reads the spill into a [Trace.Builder], builds the shard with
    [Trace.of_builder_result] (its sort is keyed like
    [Contact.compare_by_start], and it validates as [Trace.create]
    does) and writes it with [Trace_io.save], so a shard is a complete
    [Trace_io]-format file with the bytes [Trace_io] writes; an
    [# omn-shards 1] index lists the shards in time order. Peak memory
    is one shard's trace.

    Because the shard slices partition the window by [t_beg] and each
    shard is sorted by [Contact.compare_by_start], concatenating the
    shards yields the globally sorted contact sequence —
    [Omn_temporal.Trace_stream] over the index produces the
    byte-identical trace the in-memory generator would build. *)

type t

val create :
  ?shards:int ->
  name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  string ->
  t
(** [create ~name ~n_nodes ~t_start ~t_end path] opens [shards]
    (default 16, max 4096) spill files next to [path]; the final
    artifacts are [path] (the index) and [path.NNNN] (the shards).
    Raises [Invalid_argument] on a bad shard count, [n_nodes < 0] or a
    reversed or non-finite window; [Sys_error] on IO failure, after
    closing and removing the spills it had opened. *)

val add : t -> Omn_temporal.Contact.t -> unit
(** Spill one contact (validated against the node range and window,
    [Invalid_argument] otherwise). O(1) memory; any emission order. *)

val finish : t -> unit
(** Build and write every shard (crash-safe temp-and-rename per file),
    then the index — the index is written last, so it never names a
    missing shard. Spill files are removed, also on exception
    (a failure to close one included). *)

val abort : t -> unit
(** Drop the spill files without writing shards. Idempotent. *)

val contacts_written : t -> int
