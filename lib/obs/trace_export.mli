(** Chrome trace-event JSON export of a {!Timeline} snapshot.

    The output opens directly in Perfetto (ui.perfetto.dev) or
    [chrome://tracing]: one track (thread) per OCaml domain, duration
    ("ph":"X") events for chunks and pool work loops, instant ("ph":"i")
    events for steals, I/O retries and checkpoint operations,
    and a counter ("ph":"C") track for GC samples. Timestamps are
    microseconds relative to the earliest event; the absolute epoch
    start and the dropped-event counts live in a top-level ["omn"]
    object (schema ["omn-timeline 1"]), alongside the run manifest when
    one is supplied — extra top-level keys are explicitly allowed by the
    trace-event format. *)

val to_json : ?manifest:Json.t -> Timeline.view -> Json.t

val write : ?manifest:Json.t -> path:string -> Timeline.view -> unit
(** Atomic write (temp file + rename) with transient-failure retries. *)

val schema : string
(** ["omn-timeline 1"], the value of ["omn"."schema"]. *)

(** {1 Fleet merge} — one trace, one Perfetto {e process} per worker.

    A sharded run collects each worker's timeline segments over the
    wire ({!Omn_shard.Coord}); {!fleet_to_json} merges them with the
    coordinator's own view into a single trace. The coordinator renders
    as pid 1 and worker [w] as pid [w + 2]; every worker timestamp is
    shifted onto the coordinator clock by the worker's estimated offset
    (NTP-style, from [Stats_pull] round trips — see README "Fleet
    observability" for the caveats). The ["omn"."fleet"] footer lists
    per-worker pid, clock offset, round-trip time, event and
    dropped-event counts. *)

type fleet_worker = {
  fw_worker : int;  (** worker id (>= 0) *)
  fw_events : (int * Timeline.entry) list;
      (** (domain, entry), worker-clock timestamps, chronological *)
  fw_dropped : (int * int) list;  (** per-domain ring drops *)
  fw_offset : float;
      (** estimated worker_clock - coordinator_clock, seconds *)
  fw_rtt : float;  (** round-trip time of the best offset sample *)
}

val fleet_to_json : ?manifest:Json.t -> coordinator:Timeline.view -> fleet_worker list -> Json.t

val fleet_write :
  ?manifest:Json.t -> path:string -> coordinator:Timeline.view -> fleet_worker list -> unit
