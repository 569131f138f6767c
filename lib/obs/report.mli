(** Run post-mortem: distil a metrics snapshot, an exported timeline
    and/or a stamped result file into one human- or CI-readable
    verdict (the engine behind [omn report]).

    The analyzer is deliberately lenient: every input is optional and
    every section degrades to what the given inputs can support — a
    timeline alone yields the per-domain and chunk analysis, a metrics
    snapshot alone the counter summary, a result file alone the
    manifest echo. Unknown keys are ignored, so reports built by newer
    writers still parse. *)

val schema : string
(** ["omn-report 1"]. *)

val build : ?metrics:Json.t -> ?timeline:Json.t -> ?result:Json.t -> unit -> Json.t
(** Returns the report as JSON (schema {!schema}): the run manifest
    (first found among result, timeline, metrics inputs), wall-clock
    span, per-domain busy/idle/steal breakdown, chunk-duration
    straggler and load-imbalance statistics (max vs median), checkpoint
    write-latency percentiles, I/O-retry/fallback summary, and
    the [dropped_events] count (top-level key; the larger of the trace
    footer and the metrics counter [timeline.dropped_events], so a
    metrics file alone is enough for [--fail-dropped]).

    When the timeline is a fleet-merged trace (an ["omn"."fleet"]
    footer, see {!Trace_export.fleet_to_json}), the report also carries
    a ["fleet"] section: per-worker busy/idle seconds (busy from that
    worker's own [shard.compute]/[pool.work] track), trace bytes
    shipped and digest-cache hits (from the coordinator's [trace.ship]
    / [trace.cache_hit] instants), event and dropped counts, clock
    offset, a straggler flag (busy > 3x median across workers), and
    the cross-worker max/mean busy imbalance. *)

val dropped_events : Json.t -> int
(** The [dropped_events] count of a built report. *)

val pp : Format.formatter -> Json.t -> unit
(** Render a built report for humans. *)
