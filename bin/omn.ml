(* omn — command-line frontend for the opportunistic-mobile-network
   diameter toolkit.

     omn gen --preset infocom05 -o trace.omn      synthesise a trace
     omn stats trace.omn                          Table-1-style summary
     omn diameter trace.omn                       (1-eps)-diameter + CDF
     omn delay-cdf trace.omn --metrics m.json     per-hop curves + metrics snapshot
     omn delivery trace.omn -s 0 -d 5             one pair's delivery fn
     omn transform trace.omn --drop-prob 0.9 -o thinned.omn
     omn corrupt trace.omn --fault nan -o bad.omn fault-injection harness
     omn theory --lambda 0.5                      closed-form results

   Exit codes: 0 success; 1 computation error; 2 bad input or usage;
   3 degraded-but-complete (supervision quarantined some source tasks —
   every other result is exact, see --retries/--quarantine); 124
   partial result (--budget-seconds expired before the run finished —
   the timeout(1) convention, takes precedence over 3) and command-line
   parse errors (Cmdliner convention). *)

open Cmdliner
module Err = Omn_robust.Err
module Repair = Omn_robust.Repair
module Faultgen = Omn_robust.Faultgen

(* Every subcommand body runs under this wrapper so that failures map
   to the documented exit codes instead of uncaught backtraces.
   [protect_code] bodies pick their own success code (budgeted runs
   return 124 for a partial result); [protect] is the common all-done
   case. *)
let protect_code f =
  match f () with
  | code -> code
  | exception Err.Error e ->
    Format.eprintf "omn: %a@." Err.pp e;
    Err.exit_code e.code
  | exception Sys_error msg ->
    Format.eprintf "omn: %s@." msg;
    2
  | exception Invalid_argument msg ->
    Format.eprintf "omn: invalid argument: %s@." msg;
    2
  | exception Failure msg ->
    Format.eprintf "omn: %s@." msg;
    1

let protect f =
  protect_code (fun () ->
      f ();
      0)

(* The partial (124) / degraded (3) precedence itself lives in
   [Supervise.exit_code]; this constant only labels the chaos
   harness's own deliberate exit. *)
let exit_degraded = Omn_parallel.Supervise.exit_code ~partial:false ~degraded:true

let usage_err fmt = Format.kasprintf (fun msg -> raise (Err.Error (Err.v Err.Usage msg))) fmt

let trace_arg =
  let doc = "Input trace file (format written by `omn gen' / Trace_io)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let output_arg =
  let doc = "Output file (stdout if omitted)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)

(* --- ingestion policy --- *)

let policy_conv =
  Arg.enum [ ("strict", Repair.Strict); ("repair", Repair.Repair); ("skip", Repair.Skip) ]

let ingest_arg =
  let doc =
    "Ingestion policy for reading traces: $(b,strict) rejects the first malformed \
     record with a line-numbered error; $(b,repair) fixes what can be fixed (clamps \
     out-of-window contacts, swaps reversed intervals, merges exact duplicates) and \
     drops the rest; $(b,skip) drops every bad record."
  in
  Arg.(value & opt policy_conv Repair.Strict & info [ "ingest" ] ~docv:"POLICY" ~doc)

let lenient_arg =
  let doc =
    "Shorthand for $(b,--ingest repair): accept dirty traces and print a \
     machine-readable repair report on stderr."
  in
  Arg.(value & flag & info [ "lenient" ] ~doc)

(* [stream] reads through the streaming reader: constant-memory
   ingestion, and the only reader that understands `# omn-shards 1'
   indexes. *)
let load_trace ?(stream = false) ~policy ~lenient path =
  let policy = if lenient && policy = Repair.Strict then Repair.Repair else policy in
  let load =
    if stream then Omn_temporal.Trace_stream.load_result else Omn_temporal.Trace_io.load_result
  in
  match load ~policy path with
  | Error e -> raise (Err.Error e)
  | Ok (trace, report) ->
    if policy <> Repair.Strict then Format.eprintf "%a@." Repair.pp report;
    trace

(* The budget grid of `omn diameter' and `omn delay-cdf': 100
   log-spaced budgets up to the trace's span, starting at span / 5000
   but at least 1 s — or at the span itself, when it is shorter. A
   window that spans no time has no delays to grid. *)
let delay_grid trace =
  let span = Omn_temporal.Trace.span trace in
  if not (span > 0.) then
    raise
      (Err.Error
         (Err.errf Err.Window "trace window [%g; %g] spans no time; delays need a positive span"
            (Omn_temporal.Trace.t_start trace) (Omn_temporal.Trace.t_end trace)));
  Omn_stats.Grid.logarithmic ~lo:(Float.min span (Float.max 1. (span /. 5000.))) ~hi:span ~n:100

let save_or_print trace = function
  | Some path ->
    Omn_temporal.Trace_io.save trace path;
    Format.printf "wrote %s (%d contacts)@." path (Omn_temporal.Trace.n_contacts trace)
  | None -> print_string (Omn_temporal.Trace_io.to_string trace)

(* --- observability --- *)

let omn_version = "1.0.0"

let metrics_arg =
  let doc =
    "Enable the metrics registry and write a JSON snapshot (counters, per-domain \
     gauges, latency histograms, span tree; schema $(b,omn-metrics 1)) to $(docv) when \
     the command finishes — atomically, even if it fails midway."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Enable the event timeline and export it as Chrome trace-event JSON to $(docv) when \
     the command finishes (even if it fails midway). Open the file in Perfetto \
     (ui.perfetto.dev) or chrome://tracing: one track per OCaml domain, duration events \
     for driver chunks and pool work, instants for steals, retries and checkpoint \
     operations, and a GC counter track. Enabling the timeline never changes computed \
     results."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc = "Report progress on stderr as work completes (rate-limited; in-place on a tty)." in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* Provenance for every artifact this process writes. Commands enrich
   the manifest once their inputs are loaded (trace digest, seed,
   domain count); artifacts written before that see a bare one. *)
let manifest = ref None

let set_manifest m = manifest := Some m

(* Enrich the current manifest in place — sharded runs stamp their
   worker count and shard-map digest once the coordinator computed it. *)
let update_manifest f = match !manifest with Some m -> manifest := Some (f m) | None -> ()

let manifest_json ?(final = true) () =
  let m =
    match !manifest with Some m -> m | None -> Omn_obs.Manifest.create ~version:omn_version ()
  in
  let m = if final then Omn_obs.Manifest.finish m else m in
  if final then manifest := Some m;
  Omn_obs.Manifest.to_json m

(* Digest the input bytes for file traces, the canonical serialisation
   for synthesised ones — either way the digest pins the exact contact
   set the numbers were computed from. *)
let trace_manifest ?config ?seed ?domains ?path trace =
  let trace_sha256 =
    match path with
    | Some p -> Omn_obs.Sha256.file p
    | None -> Omn_obs.Sha256.string (Omn_temporal.Trace_io.to_string trace)
  in
  set_manifest
    (Omn_obs.Manifest.create ?config ?seed ?domains ~trace_sha256
       ~trace_name:(Omn_temporal.Trace.name trace)
       ~n_nodes:(Omn_temporal.Trace.n_nodes trace)
       ~n_contacts:(Omn_temporal.Trace.n_contacts trace) ~version:omn_version ())

let json_with_manifest fields = Omn_obs.Json.Obj (("manifest", manifest_json ()) :: fields)

let curve_fields (c : Omn_core.Delay_cdf.curves) =
  let open Omn_obs.Json in
  let farr a = List (Array.to_list (Array.map (fun v -> Float v) a)) in
  [
    ("grid", farr c.grid);
    ("hop_success", List (Array.to_list (Array.map farr c.hop_success)));
    ("hop_success_inf", farr c.hop_success_inf);
    ("flood_success", farr c.flood_success);
    ("flood_success_inf", Float c.flood_success_inf);
    ("max_rounds_used", Int c.max_rounds_used);
  ]

let write_json path json =
  Omn_robust.Retry_io.write_string path (Omn_obs.Json.to_string ~pretty:true json ^ "\n")

(* Telemetry pulled from shard workers during this run (set by [drive]
   when its fleet session ends); when non-empty the obs artifacts
   become fleet-merged: one Perfetto process per worker and a
   cross-process metrics snapshot with per-worker breakdowns. *)
let fleet_telemetry : Omn_shard.Coord.telemetry list ref = ref []

(* Enable the requested registries up front and emit on every exit path
   — a budget-truncated or failed run still leaves a snapshot and a
   trace of the work it did do. Both artifacts carry the manifest. *)
let with_obs ?metrics ?trace_out f =
  match (metrics, trace_out) with
  | None, None -> f ()
  | _ ->
    if metrics <> None then Omn_obs.Metrics.set_enabled true;
    if trace_out <> None then Omn_obs.Timeline.set_enabled true;
    let emit () =
      let mjson = manifest_json () in
      let view = Omn_obs.Timeline.snapshot () in
      let fleet = !fleet_telemetry in
      Option.iter
        (fun path ->
          match fleet with
          | [] -> Omn_obs.Trace_export.write ~manifest:mjson ~path view
          | fleet ->
            let workers =
              List.map
                (fun (t : Omn_shard.Coord.telemetry) ->
                  {
                    Omn_obs.Trace_export.fw_worker = t.tw_worker;
                    fw_events = t.tw_events;
                    fw_dropped = t.tw_dropped;
                    fw_offset = t.tw_offset;
                    fw_rtt = t.tw_rtt;
                  })
                fleet
            in
            Omn_obs.Trace_export.fleet_write ~manifest:mjson ~path ~coordinator:view workers)
        trace_out;
      Option.iter
        (fun path ->
          (* the coordinator's own snapshot, with the timeline's drop
             counters stamped in so --fail-dropped works from the
             metrics file alone; under a fleet, merged with every
             worker's final push (per-worker breakdown via tag_worker) *)
          let own =
            Omn_obs.Metrics.with_counter "timeline.dropped_events" view.dropped
              (Omn_obs.Metrics.snapshot ())
          in
          let snap =
            match fleet with
            | [] -> own
            | fleet ->
              Omn_obs.Metrics.merge_all
                (Omn_obs.Metrics.tag_worker ~worker:(-1) own
                :: List.map
                     (fun (t : Omn_shard.Coord.telemetry) ->
                       Omn_obs.Metrics.tag_worker ~worker:t.tw_worker t.tw_metrics)
                     fleet)
          in
          match Omn_obs.Metrics.snapshot_to_json snap with
          | Omn_obs.Json.Obj fields ->
            write_json path (Omn_obs.Json.Obj (("manifest", mjson) :: fields))
          | j -> write_json path j)
        metrics
    in
    Fun.protect ~finally:emit f

(* Checkpoint files are opaque Marshal payloads; their provenance rides
   in a JSON sidecar so a resumed or post-mortem run can be traced back
   to its inputs. Removed together with the generations. *)
let write_checkpoint_sidecar checkpoint =
  Option.iter
    (fun path ->
      write_json (Omn_robust.Checkpoint.manifest_path path) (manifest_json ~final:false ()))
    checkpoint

(* A progress bar materialised on the first report (the total is only
   known once the computation announces it). *)
let progress_reporter ~enabled label =
  if not enabled then (None, fun () -> ())
  else begin
    let bar = ref None in
    let report ~done_ ~total ~degraded ~fallback =
      let b =
        match !bar with
        | Some b -> b
        | None ->
          let b = Omn_obs.Progress.create ~total ~label () in
          bar := Some b;
          b
      in
      if degraded > 0 then Omn_obs.Progress.set_degraded b degraded;
      if fallback then Omn_obs.Progress.set_fallback b;
      Omn_obs.Progress.set b done_
    in
    (Some report, fun () -> Option.iter Omn_obs.Progress.finish !bar)
  end

(* --- gen --- *)

type preset =
  | P_infocom05
  | P_infocom06
  | P_hong_kong
  | P_reality
  | P_waypoint
  | P_random
  | P_conference

let preset_conv =
  Arg.enum
    [
      ("infocom05", P_infocom05); ("infocom06", P_infocom06); ("hong-kong", P_hong_kong);
      ("hongkong", P_hong_kong); ("reality-mining", P_reality); ("reality", P_reality);
      ("waypoint", P_waypoint); ("random", P_random); ("conference", P_conference);
    ]

let conference_venue ~seed ~nodes ~hours =
  let rng = Omn_stats.Rng.create seed in
  let p = Omn_mobility.Venue.conference_params ~rng ~n:nodes ~days:(hours /. 24.) in
  (rng, p)

let preset_trace preset ~seed ~nodes ~lambda ~hours =
  let rng = Omn_stats.Rng.create seed in
  match preset with
  | P_infocom05 -> (Omn_mobility.Presets.infocom05 ~seed ()).trace
  | P_infocom06 -> (Omn_mobility.Presets.infocom06 ~seed ()).trace
  | P_hong_kong -> (Omn_mobility.Presets.hong_kong ~seed ()).trace
  | P_reality -> (Omn_mobility.Presets.reality_mining ~seed ()).trace
  | P_waypoint ->
    Omn_mobility.Random_waypoint.generate rng
      { Omn_mobility.Random_waypoint.default with n = nodes; horizon = hours *. 3600. }
  | P_random ->
    Omn_randnet.Continuous.generate rng
      { n = nodes; lambda = lambda /. 3600.; horizon = hours *. 3600. }
  | P_conference ->
    let rng, p = conference_venue ~seed ~nodes ~hours in
    Omn_mobility.Venue.generate rng ~n:nodes ~name:"conference" p

let gen_cmd =
  let preset =
    let doc =
      "Workload: one of $(b,infocom05), $(b,infocom06), $(b,hong-kong), \
       $(b,reality-mining), $(b,waypoint), $(b,random) (continuous-time random \
       temporal network), $(b,conference) (raw venue co-location ground truth — \
       the one preset that can stream straight to shards without materializing \
       the trace)."
    in
    Arg.(value & opt preset_conv P_infocom05 & info [ "preset" ] ~docv:"NAME" ~doc)
  in
  let nodes =
    let doc = "Node count (waypoint, random and conference presets only)." in
    Arg.(value & opt int 40 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let lambda =
    let doc = "Contact rate per node per hour (random preset only)." in
    Arg.(value & opt float 2. & info [ "lambda" ] ~docv:"RATE" ~doc)
  in
  let hours =
    let doc = "Horizon in hours (waypoint, random and conference presets only)." in
    Arg.(value & opt float 6. & info [ "hours" ] ~docv:"H" ~doc)
  in
  let shards =
    let doc =
      "Write the trace as $(docv) time-ordered shard files plus an $(b,# omn-shards 1) \
       index at the $(b,-o) path instead of a single file. Out-of-core: contacts are \
       spilled to their time slice as they are generated and sorted one shard at a \
       time, so peak memory is one shard — with the $(b,conference) preset the trace \
       is never materialized at all. Streaming the index back \
       ($(b,omn diameter --stream)) yields the byte-identical trace. $(b,0) (default) \
       writes a single file."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let run preset seed nodes lambda hours shards output =
    protect @@ fun () ->
    if shards = 0 then save_or_print (preset_trace preset ~seed ~nodes ~lambda ~hours) output
    else begin
      let path =
        match output with
        | Some p -> p
        | None -> usage_err "--shards requires --output FILE (the shard-index path)"
      in
      let module Sink = Omn_mobility.Shard_sink in
      let stream_sink ~name ~n_nodes ~t_start ~t_end fill =
        let sink = Sink.create ~shards ~name ~n_nodes ~t_start ~t_end path in
        (try
           fill (Sink.add sink);
           Sink.finish sink
         with e ->
           Sink.abort sink;
           raise e);
        Format.printf "wrote %s + %d shard(s) (%d contacts)@." path shards
          (Sink.contacts_written sink)
      in
      match preset with
      | P_conference ->
        let rng, p = conference_venue ~seed ~nodes ~hours in
        stream_sink ~name:"conference" ~n_nodes:nodes ~t_start:p.Omn_mobility.Venue.t_start
          ~t_end:p.Omn_mobility.Venue.t_end (fun add ->
            Omn_mobility.Venue.iter_contacts rng ~n:nodes p add)
      | _ ->
        let trace = preset_trace preset ~seed ~nodes ~lambda ~hours in
        let module Trace = Omn_temporal.Trace in
        stream_sink ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
          ~t_start:(Trace.t_start trace) ~t_end:(Trace.t_end trace) (fun add ->
            Trace.iter add trace)
    end
  in
  let term =
    Term.(const run $ preset $ seed_arg $ nodes $ lambda $ hours $ shards $ output_arg)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Synthesise a contact trace") term

(* --- stats --- *)

let stats_cmd =
  let run path ingest lenient =
    protect @@ fun () ->
    let trace = load_trace ~policy:ingest ~lenient path in
    Format.printf "%a@." Omn_temporal.Trace_stats.pp_summary
      (Omn_temporal.Trace_stats.summary trace);
    match Omn_temporal.Trace_stats.inter_contact_times trace with
    | None -> ()
    | Some ict ->
      Format.printf "inter-contact time: median %s, mean %s@."
        (Omn_stats.Timefmt.duration (Omn_stats.Empirical.quantile ict 0.5))
        (Omn_stats.Timefmt.duration (Omn_stats.Empirical.mean_finite ict))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Describe a trace (Table-1-style summary)")
    Term.(const run $ trace_arg $ ingest_arg $ lenient_arg)

(* --- diameter --- *)

let epsilon_arg =
  let doc = "Tolerated success-rate loss vs unlimited flooding." in
  Arg.(value & opt float 0.01 & info [ "epsilon" ] ~docv:"E" ~doc)

let max_hops_arg =
  let doc = "Largest hop bound examined." in
  Arg.(value & opt int 10 & info [ "max-hops" ] ~docv:"K" ~doc)

let domains_conv =
  let parse s =
    match Omn_parallel.Pool.spec_of_string s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer or `auto', got %S" s))
  in
  let print ppf spec = Format.pp_print_string ppf (Omn_parallel.Pool.spec_to_string spec) in
  Arg.conv (parse, print)

let domains_arg =
  let doc =
    "Parallelise over $(docv) OCaml domains; $(b,auto) uses the machine's recommended \
     domain count. Results are bit-identical for every setting — only wall-clock time \
     changes."
  in
  Arg.(value & opt domains_conv (Omn_parallel.Pool.Fixed 1) & info [ "domains" ] ~docv:"D" ~doc)

let checkpoint_arg =
  let doc =
    "Write an atomic checkpoint of the completed per-source results to $(docv) after \
     every batch (removed on successful completion)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc = "Resume from the $(b,--checkpoint) file if it exists." in
  Arg.(value & flag & info [ "resume" ] ~doc)

let checkpoint_every_arg =
  let doc =
    "Batch size in source nodes when $(b,--checkpoint), $(b,--budget-seconds) or \
     $(b,--progress) needs batches (otherwise a run is one batch). Any value can \
     resume any checkpoint."
  in
  Arg.(value & opt int 8 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let budget_arg =
  let doc =
    "Stop after roughly $(docv) wall-clock seconds, reporting a clearly-labelled \
     partial result over a uniformly sampled subset of source nodes."
  in
  Arg.(value & opt (some float) None & info [ "budget-seconds" ] ~docv:"S" ~doc)

(* --- supervision --- *)

module Supervise = Omn_parallel.Supervise

let retries_arg =
  let doc =
    "Supervise per-source tasks: retry a failing task up to $(docv) extra times with \
     capped exponential backoff before quarantining it. Giving any supervision flag \
     enables supervision; quarantined sources are listed and the run exits with \
     code 3 (degraded but complete)."
  in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let task_deadline_arg =
  let doc =
    "Per-attempt wall-clock deadline in seconds: a task attempt that fails after \
     overrunning $(docv) is not retried (implies supervision)."
  in
  Arg.(value & opt (some float) None & info [ "task-deadline" ] ~docv:"S" ~doc)

let quarantine_arg =
  let doc =
    "With supervision on, whether a task that exhausts its retries is quarantined \
     ($(b,true), default — the run completes degraded) or aborts the run ($(b,false))."
  in
  Arg.(value & opt (some bool) None & info [ "quarantine" ] ~docv:"BOOL" ~doc)

let supervise_policy retries task_deadline quarantine =
  match (retries, task_deadline, quarantine) with
  | None, None, None -> None
  | _ ->
    let d = Supervise.default in
    Some
      {
        d with
        Supervise.retries = Option.value retries ~default:d.Supervise.retries;
        task_deadline;
        quarantine = Option.value quarantine ~default:d.Supervise.quarantine;
      }

(* --- sharded execution (omn_shard) --- *)

module Shard = Omn_shard.Coord
module Transport = Omn_shard.Transport

(* --workers takes either a count (spawn that many local processes) or
   a comma-separated list of pre-started `omn worker --listen'
   addresses to dial. *)
type workers_spec = Wcount of int | Wpeers of Transport.addr list

let workers_fleet = function Wcount n -> n | Wpeers l -> List.length l
let sharded spec = workers_fleet spec > 0

let workers_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok (Wcount n)
    | Some _ -> Error (`Msg "worker count must be >= 0")
    | None -> (
      let parts = List.filter (fun p -> p <> "") (String.split_on_char ',' s) in
      if parts = [] then Error (`Msg "empty worker list")
      else
        let rec go acc = function
          | [] -> Ok (Wpeers (List.rev acc))
          | p :: rest -> (
            match Transport.parse p with
            | Ok (Transport.Tcp _ as a) -> go (a :: acc) rest
            | Ok (Transport.Unix_path _ as a) -> go (a :: acc) rest
            | Error e -> Error (`Msg e.Omn_robust.Err.msg))
        in
        go [] parts)
  in
  let pp ppf = function
    | Wcount n -> Format.pp_print_int ppf n
    | Wpeers l ->
      Format.pp_print_string ppf (String.concat "," (List.map Transport.to_string l))
  in
  Arg.conv (parse, pp)

let workers_arg =
  let doc =
    "Shard source nodes over worker processes (consistent hashing with \
     successor-list failover, CRC-framed wire protocol). $(docv) is either a count — \
     spawn that many local workers over a Unix-domain socket — or a comma-separated \
     $(b,host:port) list of pre-started $(b,omn worker --listen) processes to dial \
     over TCP. $(b,0) (default) computes in-process. Results are byte-identical to \
     the in-process run at any worker count, even when workers are killed, \
     partitioned or joined mid-run. With workers, $(b,--domains) sets each worker's \
     own domain-pool size; $(b,--checkpoint)/$(b,--resume), $(b,--budget-seconds), \
     $(b,--progress) and $(b,--sample) work as in process, over one fleet for the \
     whole run."
  in
  Arg.(value & opt workers_conv (Wcount 0) & info [ "workers" ] ~docv:"W" ~doc)

let addr_conv =
  let parse s =
    match Transport.parse s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e.Omn_robust.Err.msg)
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Transport.to_string a))

let listen_arg =
  let doc =
    "Coordinator listener address ($(b,host:port), port $(b,0) picks a free one) for \
     workers that dial in over TCP — mid-run joiners and spawned fleets on \
     multi-homed hosts. Default: a fresh Unix-domain socket under TMPDIR."
  in
  Arg.(value & opt (some addr_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let auth_key_arg =
  let doc =
    "Pre-shared key: require the HMAC-SHA-256 handshake on every shard connection. \
     Both sides must hold the same key; a wrong key, replayed nonce or protocol \
     version mismatch is a typed $(b,E-AUTH)/$(b,E-PROTO) rejection (exit 2), never \
     a hang. Defaults to the $(b,OMN_SHARD_KEY) environment variable (which is also \
     how spawned workers inherit it — the key never appears in argv)."
  in
  Arg.(value & opt (some string) None & info [ "auth-key" ] ~docv:"KEY" ~doc)

let worker_trace_cache_arg =
  let doc =
    "Hand spawned workers this content-addressed trace store ($(b,--trace-cache)): a \
     worker whose store already holds the job's trace digest re-ships zero bytes."
  in
  Arg.(value & opt (some string) None & info [ "worker-trace-cache" ] ~docv:"DIR" ~doc)

let stat_addr_arg =
  let doc =
    "Serve a live Prometheus text exposition of the fleet-merged metrics registry on \
     $(b,host:port) (port $(b,0) picks a free one; the bound address is printed to \
     stderr). The coordinator appears as $(b,worker=\"-1\") and each worker under its \
     id. Requires $(b,--workers); implies per-worker telemetry pulls."
  in
  Arg.(value & opt (some addr_conv) None & info [ "stat-addr" ] ~docv:"ADDR" ~doc)

let auth_key_resolve key =
  match key with Some _ -> key | None -> Sys.getenv_opt "OMN_SHARD_KEY"

let heartbeat_timeout_arg =
  let doc =
    "Declare a worker dead (and reassign its shard) after $(docv) seconds of silence. \
     Must exceed the longest single-source compute time."
  in
  Arg.(value & opt float 5. & info [ "heartbeat-timeout" ] ~docv:"S" ~doc)

let worker_ckpt_dir_arg =
  let doc =
    "Directory for per-worker shard checkpoints: a killed-and-respawned worker resumes \
     its completed sources from here instead of recomputing them."
  in
  Arg.(value & opt (some string) None & info [ "worker-ckpt-dir" ] ~docv:"DIR" ~doc)

let shard_fault_conv =
  let parse s =
    let err () =
      Error
        (`Msg
           (Printf.sprintf "expected KIND[:AFTER[:VICTIM]] with KIND one of %s, got %S"
              (String.concat "|" Faultgen.shard_fault_names)
              s))
    in
    match String.split_on_char ':' s with
    | kind :: rest -> (
      match (Faultgen.shard_fault_of_name kind, rest) with
      | Some shard_fault, [] -> Ok { Faultgen.after_results = 1; victim = 0; shard_fault }
      | Some shard_fault, [ a ] -> (
        match int_of_string_opt a with
        | Some after_results when after_results >= 0 ->
          Ok { Faultgen.after_results; victim = 0; shard_fault }
        | _ -> err ())
      | Some shard_fault, [ a; v ] -> (
        match (int_of_string_opt a, int_of_string_opt v) with
        | Some after_results, Some victim when after_results >= 0 && victim >= 0 ->
          Ok { Faultgen.after_results; victim; shard_fault }
        | _ -> err ())
      | _ -> err ())
    | [] -> err ()
  in
  Arg.conv (parse, Faultgen.pp_shard_event)

let shard_fault_arg =
  let doc =
    "Chaos: after AFTER acknowledged results (default 1), apply KIND ($(b,worker-kill), \
     $(b,worker-hang), $(b,sock-corrupt), $(b,net-partition), $(b,net-slow), \
     $(b,net-dup), $(b,auth-bad), $(b,worker-join) or $(b,worker-leave)) to worker \
     VICTIM (default 0); $(docv) is KIND[:AFTER[:VICTIM]]. Repeatable; requires \
     $(b,--workers). Results must stay byte-identical — this flag exists to prove it."
  in
  Arg.(value & opt_all shard_fault_conv [] & info [ "shard-fault" ] ~docv:"SPEC" ~doc)

(* One fleet per run, set up the same way for `omn diameter' and
   `omn delay-cdf'; delay-cdf adds its own shard flags on top. *)
let fleet_config ~domains ~supervise ~telemetry workers =
  if not (sharded workers) then None
  else
    let count, peers = match workers with Wcount n -> (n, []) | Wpeers l -> (0, l) in
    Some
      {
        (Shard.default ~workers:count) with
        Shard.worker_domains = domains;
        peers;
        supervise;
        auth_key = auth_key_resolve None;
        telemetry;
        on_stat_bound =
          Some (fun a -> Format.eprintf "omn: fleet stats on %s@." (Transport.to_string a));
      }

(* What a fleet session leaves behind: per-worker telemetry for the obs
   artifacts, the fleet shape in the manifest, and failover, auth and
   membership notes on stderr. *)
let note_fleet (cfg : Shard.config) (st : Shard.stats) =
  fleet_telemetry := st.fleet;
  update_manifest (fun m ->
      {
        m with
        Omn_obs.Manifest.workers = Some (cfg.workers + List.length cfg.peers);
        shard_map_sha256 = Some st.shard_map_sha256;
      });
  if st.reassigned > 0 || st.rejoins > 0 then
    Format.eprintf
      "omn: shard failover: %d source(s) reassigned, %d worker spawn(s), %d rejoin(s), %d \
       duplicate result(s) dropped@."
      st.reassigned st.spawns st.rejoins st.duplicates;
  if st.auth_rejects > 0 then
    Format.eprintf "omn: shard auth: %d connection(s) rejected (E-AUTH)@." st.auth_rejects;
  if st.joins > 0 || st.leaves > 0 then
    Format.eprintf "omn: shard membership: %d join(s), %d leave(s)@." st.joins st.leaves

(* Report fallback/quarantine outcomes and pick the documented exit
   code via the one shared precedence rule: partial (124) beats
   degraded (3) beats success (0) — [Supervise.exit_code], so the
   single-process and sharded drivers can never drift apart. *)
let resilience_exit ~partial ~ckpt_fallback degraded =
  if ckpt_fallback then
    Format.eprintf "omn: checkpoint was corrupt; resumed from the previous generation@.";
  (match degraded with
  | [] -> ()
  | fs ->
    Format.printf "DEGRADED result: %d source task(s) quarantined@." (List.length fs);
    List.iter (fun f -> Format.printf "  %a@." Supervise.pp_failure f) fs);
  Supervise.exit_code ~partial ~degraded:(degraded <> [])

(* `omn diameter' and `omn delay-cdf' both run the one driver: the
   flags pick its policies, --progress its reporter, --workers its
   executor (the fleet serves every batch). *)
let drive ~progress ~label ~domains ?fleet ?supervise ?checkpoint ~resume ~every ?budget
    ?sampling plan =
  let report, finish = progress_reporter ~enabled:progress label in
  let report =
    Option.map
      (fun r (p : Omn_core.Delay_cdf.progress) _ ->
        r ~done_:p.sources_done ~total:p.sources_total ~degraded:(List.length p.degraded)
          ~fallback:p.ckpt_fallback)
      report
  in
  let run ?partials_of () =
    let outcome =
      Omn_core.Driver.run ~domains ?partials_of ?supervise ?checkpoint ~resume
        ~checkpoint_every:every ?budget_seconds:budget ~clock:Unix.gettimeofday ?report
        ?sampling plan
    in
    finish ();
    outcome
  in
  let outcome =
    match fleet with
    | None -> run ()
    | Some cfg -> (
      match Shard.with_fleet cfg plan (fun partials_of -> run ~partials_of ()) with
      | Error e -> Error e
      | Ok (outcome, st) ->
        note_fleet cfg st;
        outcome)
  in
  match outcome with Ok o -> o | Error e -> raise (Err.Error e)

let partial_banner (p : Omn_core.Delay_cdf.progress) =
  if p.partial then
    Format.printf "PARTIAL result: budget exhausted after %d of %d source nodes (uniform sample)@."
      p.sources_done p.sources_total

let print_curve_table (c : Omn_core.Delay_cdf.curves) =
  Format.printf "delay        ";
  List.iter (fun k -> Format.printf "%7s" (Printf.sprintf "%dh" k)) [ 1; 2; 3; 4 ];
  Format.printf "   flood@.";
  Array.iteri
    (fun i d ->
      if i mod 12 = 0 then begin
        Format.printf "%-12s " (Omn_stats.Timefmt.axis_seconds d);
        List.iter (fun k -> Format.printf "%7.3f" c.hop_success.(k - 1).(i)) [ 1; 2; 3; 4 ];
        Format.printf "%8.3f@." c.flood_success.(i)
      end)
    c.grid

(* --- sampled estimator flags (omn diameter --sample) --- *)

let sample_arg =
  let doc =
    "Estimate the diameter from a seeded stratified sample of $(docv) source nodes \
     instead of all of them, with a bootstrap confidence interval; the sample doubles \
     until the CI is at most $(b,--ci-width) hops wide. With $(docv) >= the node count \
     the result is byte-identical to the exact engine."
  in
  Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"K" ~doc)

let ci_width_arg =
  let doc = "Stop tightening once the CI is at most $(docv) hops wide (default 1)." in
  Arg.(value & opt (some float) None & info [ "ci-width" ] ~docv:"W" ~doc)

let confidence_arg =
  let doc = "Nominal CI coverage (default 0.9)." in
  Arg.(value & opt (some float) None & info [ "confidence" ] ~docv:"C" ~doc)

let bootstrap_arg =
  let doc = "Bootstrap resamples per tightening round (default 200)." in
  Arg.(value & opt (some int) None & info [ "bootstrap" ] ~docv:"B" ~doc)

let sample_seed_arg =
  let doc = "Seed for the source sample rotation (default 0)." in
  Arg.(value & opt (some int) None & info [ "sample-seed" ] ~docv:"INT" ~doc)

let stream_arg =
  let doc =
    "Ingest the trace through the streaming parser: constant-memory, honours \
     $(b,--ingest)/$(b,--lenient), and reads $(b,# omn-shards 1) indexes written by \
     `omn gen --shards'. Results are byte-identical to the in-memory reader on any \
     time-ordered input."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let heap_cap_arg =
  let doc =
    "Test hook: fail with a Compute error if the peak major-heap size observed during \
     trace ingestion exceeds $(docv) words. The scale harness uses this to prove \
     streaming ingestion stays under a cap that in-memory loading busts. $(b,0) \
     disables the check."
  in
  Arg.(value & opt int 0 & info [ "heap-cap-words" ] ~docv:"WORDS" ~doc)

let diameter_cmd =
  let run path ingest lenient epsilon max_hops domains checkpoint resume every budget metrics
      trace_out progress retries task_deadline quarantine sample ci_width confidence bootstrap
      sample_seed stream workers heap_cap output =
    protect_code @@ fun () ->
    if resume && checkpoint = None then usage_err "--resume requires --checkpoint FILE";
    if epsilon <= 0. || epsilon >= 1. then usage_err "--epsilon out of (0,1)";
    if sample = None then begin
      let reject what = usage_err "%s requires --sample" what in
      if ci_width <> None then reject "--ci-width";
      if confidence <> None then reject "--confidence";
      if bootstrap <> None then reject "--bootstrap";
      if sample_seed <> None then reject "--sample-seed"
    end;
    let domains = Omn_parallel.Pool.resolve domains in
    let supervise = supervise_policy retries task_deadline quarantine in
    if sample <> None && supervise <> None then
      usage_err "--retries/--task-deadline/--quarantine are not supported with --sample";
    with_obs ?metrics ?trace_out @@ fun () ->
    (* The heap alarm must be armed before ingestion starts: the cap is
       a statement about the loader's transient structures, which are
       dead (and possibly collected) by the time the load returns. *)
    let peak = ref 0 in
    let note_peak () =
      let h = (Gc.quick_stat ()).Gc.heap_words in
      if h > !peak then peak := h
    in
    let alarm = if heap_cap > 0 then Some (Gc.create_alarm note_peak) else None in
    let trace = load_trace ~stream ~policy:ingest ~lenient path in
    Option.iter
      (fun a ->
        Gc.delete_alarm a;
        note_peak ();
        if !peak > heap_cap then
          raise
            (Err.Error
               (Err.v Err.Compute
                  (Printf.sprintf
                     "ingestion peak heap %d words exceeds cap %d (try --stream over a \
                      shard index)"
                     !peak heap_cap))))
      alarm;
    let grid = delay_grid trace in
    trace_manifest ~path ~domains
      ~config:
        Omn_obs.Json.
          [
            ("epsilon", Float epsilon); ("max_hops", Int max_hops);
            ("checkpoint_every", Int every);
            ("budget_seconds", match budget with Some b -> Float b | None -> Null);
            ("supervised", Bool (supervise <> None));
            ("sample", match sample with Some k -> Int k | None -> Null);
            ("streamed", Bool stream);
          ]
      trace;
    write_checkpoint_sidecar checkpoint;
    let ci_width = Option.value ci_width ~default:1. in
    let confidence = Option.value confidence ~default:0.9 in
    let sampling =
      Option.map
        (fun sample ->
          {
            Omn_core.Driver.sample;
            ci_width;
            confidence;
            bootstrap = Option.value bootstrap ~default:200;
            epsilon;
          })
        sample
    in
    let sample_seed = Option.value sample_seed ~default:0 in
    let plan = Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops ~grid ~seed:sample_seed trace) in
    let fleet =
      fleet_config ~domains ~supervise ~telemetry:(metrics <> None || trace_out <> None) workers
    in
    let o =
      drive ~progress
        ~label:(if sampling = None then "sources" else "sampled sources")
        ~domains ?fleet ?supervise ?checkpoint ~resume ~every ?budget ?sampling plan
    in
    let p = o.progress in
    let diameter =
      match o.sample with
      | Some s -> s.diameter
      | None -> Omn_core.Diameter.of_curves ~epsilon o.curves
    in
    let fmt_bound = function Some d -> string_of_int d | None -> Printf.sprintf ">%d" max_hops in
    partial_banner p;
    (match output with
    | Some f ->
      let open Omn_obs.Json in
      let opt = function Some d -> Int d | None -> Null in
      let sample_block =
        match o.sample with
        | Some s ->
          [
            ( "sample",
              Obj
                [
                  ("sampled", Int p.sources_done); ("total", Int p.sources_total);
                  ("rounds", Int s.rounds); ("seed", Int sample_seed);
                  ("confidence", Float confidence); ("ci_lo", opt s.ci_lo);
                  ("ci_hi", opt s.ci_hi); ("ci_width", Float s.width);
                  ("target_ci_width", Float ci_width); ("exhaustive", Bool s.exhaustive);
                  ("partial", Bool p.partial); ("ckpt_fallback", Bool p.ckpt_fallback);
                ] );
          ]
        | None -> []
      in
      write_json f
        (json_with_manifest
           (sample_block
           @ [
               ("epsilon", Float epsilon); ("diameter", opt diameter); ("max_hops", Int max_hops);
               ("sources_done", Int p.sources_done); ("sources_total", Int p.sources_total);
               ("partial", Bool p.partial);
               ("degraded_sources", Int (List.length p.degraded));
               ("ckpt_fallback", Bool p.ckpt_fallback);
             ]
           @ curve_fields o.curves));
      Format.printf "wrote %s@." f
    | None ->
      Format.printf "(1 - %g)-diameter: %s@.@." epsilon
        (match diameter with Some d -> string_of_int d | None -> Printf.sprintf "> %d" max_hops);
      print_curve_table o.curves;
      Option.iter
        (fun (s : Omn_core.Driver.sample) ->
          Format.printf "sampled %d of %d sources in %d round(s); %g%% CI [%s, %s] (width %g)@."
            p.sources_done p.sources_total s.rounds (100. *. confidence) (fmt_bound s.ci_lo)
            (fmt_bound s.ci_hi) s.width)
        o.sample);
    resilience_exit ~partial:p.partial ~ckpt_fallback:p.ckpt_fallback p.degraded
  in
  Cmd.v
    (Cmd.info "diameter" ~doc:"Measure the (1-eps)-diameter of a trace, exactly or by sampling")
    Term.(
      const run $ trace_arg $ ingest_arg $ lenient_arg $ epsilon_arg $ max_hops_arg
      $ domains_arg $ checkpoint_arg $ resume_arg $ checkpoint_every_arg $ budget_arg
      $ metrics_arg $ trace_out_arg $ progress_arg $ retries_arg $ task_deadline_arg
      $ quarantine_arg $ sample_arg $ ci_width_arg $ confidence_arg $ bootstrap_arg
      $ sample_seed_arg $ stream_arg $ workers_arg $ heap_cap_arg $ output_arg)

(* --- delay-cdf --- *)

let delay_cdf_cmd =
  let trace_pos =
    let doc = "Input trace file (omit when using $(b,--preset))." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let preset =
    let doc = "Synthesise the workload instead of reading a file (same names as `omn gen')." in
    Arg.(value & opt (some preset_conv) None & info [ "preset" ] ~docv:"NAME" ~doc)
  in
  let run path preset seed ingest lenient max_hops domains checkpoint resume every budget
      metrics trace_out progress retries task_deadline quarantine workers hb_timeout
      worker_ckpt_dir shard_faults listen auth_key worker_trace_cache stat_addr output =
    protect_code @@ fun () ->
    if resume && checkpoint = None then usage_err "--resume requires --checkpoint FILE";
    if shard_faults <> [] && not (sharded workers) then
      usage_err "--shard-fault requires --workers";
    if (listen <> None || auth_key <> None || worker_trace_cache <> None
       || stat_addr <> None)
       && not (sharded workers)
    then
      usage_err "--listen/--auth-key/--worker-trace-cache/--stat-addr require --workers";
    let domains = Omn_parallel.Pool.resolve domains in
    let supervise = supervise_policy retries task_deadline quarantine in
    with_obs ?metrics ?trace_out @@ fun () ->
    let trace =
      match (path, preset) with
      | Some _, Some _ -> usage_err "give either TRACE or --preset, not both"
      | Some p, None -> load_trace ~policy:ingest ~lenient p
      | None, Some pr -> preset_trace pr ~seed ~nodes:40 ~lambda:2. ~hours:6.
      | None, None -> usage_err "need a TRACE file or --preset NAME"
    in
    let grid = delay_grid trace in
    trace_manifest ?path ~seed ~domains
      ~config:
        Omn_obs.Json.
          [
            ("max_hops", Int max_hops); ("checkpoint_every", Int every);
            ("budget_seconds", match budget with Some b -> Float b | None -> Null);
            ("supervised", Bool (supervise <> None));
          ]
      trace;
    write_checkpoint_sidecar checkpoint;
    let fleet =
      fleet_config ~domains ~supervise
        ~telemetry:(metrics <> None || trace_out <> None || stat_addr <> None)
        workers
      |> Option.map (fun cfg ->
             let cfg =
               {
                 cfg with
                 Shard.heartbeat_timeout = hb_timeout;
                 ckpt_dir = worker_ckpt_dir;
                 listen;
                 auth_key = auth_key_resolve auth_key;
                 worker_trace_cache;
                 chaos =
                   List.sort
                     (fun (a : Faultgen.shard_event) b -> compare a.after_results b.after_results)
                     shard_faults;
                 stat_addr;
               }
             in
             (* a fault schedule needs the victim to still hold
                undispatched work when the fault fires, or failover
                degenerates into a socket-buffer race; pin the
                flow-control window like the chaos harness does *)
             if shard_faults = [] then cfg else { cfg with Shard.max_inflight = 2 })
    in
    let plan = Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops ~grid trace) in
    let { Omn_core.Driver.curves; progress = p; _ } =
      drive ~progress ~label:"sources" ~domains ?fleet ?supervise ?checkpoint ~resume ~every
        ?budget plan
    in
    partial_banner p;
    (match output with
    | Some f ->
      write_json f (json_with_manifest (curve_fields curves));
      Format.printf "wrote %s@." f
    | None ->
      print_curve_table curves;
      Format.printf "flood success at unlimited delay: %.3f (max fixpoint rounds: %d)@."
        curves.flood_success_inf curves.max_rounds_used);
    resilience_exit ~partial:p.partial ~ckpt_fallback:p.ckpt_fallback p.degraded
  in
  Cmd.v
    (Cmd.info "delay-cdf"
       ~doc:
         "Compute the per-hop-bound delay-CDF curves of a trace (Figs. 9-11 without the \
          diameter extraction)")
    Term.(
      const run $ trace_pos $ preset $ seed_arg $ ingest_arg $ lenient_arg $ max_hops_arg
      $ domains_arg $ checkpoint_arg $ resume_arg $ checkpoint_every_arg $ budget_arg
      $ metrics_arg $ trace_out_arg $ progress_arg $ retries_arg $ task_deadline_arg
      $ quarantine_arg $ workers_arg $ heartbeat_timeout_arg $ worker_ckpt_dir_arg
      $ shard_fault_arg $ listen_arg $ auth_key_arg $ worker_trace_cache_arg
      $ stat_addr_arg $ output_arg)

(* --- delivery --- *)

let delivery_cmd =
  let source =
    Arg.(required & opt (some int) None & info [ "s"; "source" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dest =
    Arg.(
      required & opt (some int) None & info [ "d"; "dest" ] ~docv:"NODE" ~doc:"Destination node.")
  in
  let hops =
    Arg.(value & opt (some int) None & info [ "hops" ] ~docv:"K" ~doc:"Hop bound (default none).")
  in
  let run path ingest lenient source dest hops =
    protect @@ fun () ->
    let trace = load_trace ~policy:ingest ~lenient path in
    let n = Omn_temporal.Trace.n_nodes trace in
    if source < 0 || source >= n then usage_err "source node %d out of range [0, %d)" source n;
    if dest < 0 || dest >= n then usage_err "destination node %d out of range [0, %d)" dest n;
    let delivery = Omn_core.Journey.delivery_to trace ~source ~dest ?max_hops:hops () in
    Format.printf "%d optimal path(s) from %d to %d%s@."
      (Omn_core.Delivery.n_optimal_paths delivery)
      source dest
      (match hops with None -> "" | Some k -> Printf.sprintf " within %d hops" k);
    Array.iter
      (fun (p : Omn_core.Ld_ea.t) ->
        Format.printf "  last departure %-12g earliest arrival %-12g@." p.ld p.ea)
      (Omn_core.Delivery.descriptors delivery)
  in
  Cmd.v
    (Cmd.info "delivery" ~doc:"Print the delivery function of one pair")
    Term.(const run $ trace_arg $ ingest_arg $ lenient_arg $ source $ dest $ hops)

(* --- transform --- *)

let transform_cmd =
  let drop_prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "drop-prob" ] ~docv:"P" ~doc:"Drop each contact with probability P.")
  in
  let min_duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-duration" ] ~docv:"SECONDS" ~doc:"Keep only contacts longer than this.")
  in
  let window =
    Arg.(
      value
      & opt (some (pair ~sep:':' float float)) None
      & info [ "window" ] ~docv:"T0:T1" ~doc:"Crop to a time window.")
  in
  let run path ingest lenient seed drop_prob min_duration window output =
    protect @@ fun () ->
    let trace = load_trace ~policy:ingest ~lenient path in
    let trace =
      match window with
      | Some (t_start, t_end) -> Omn_temporal.Transform.time_window ~t_start ~t_end trace
      | None -> trace
    in
    let trace =
      match min_duration with
      | Some threshold -> Omn_temporal.Transform.keep_longer_than threshold trace
      | None -> trace
    in
    let trace =
      match drop_prob with
      | Some p ->
        Omn_temporal.Transform.remove_random ~rng:(Omn_stats.Rng.create seed) ~p trace
      | None -> trace
    in
    save_or_print trace output
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Crop / filter / thin a trace (the paper's section 6 surgery)")
    Term.(
      const run $ trace_arg $ ingest_arg $ lenient_arg $ seed_arg $ drop_prob $ min_duration
      $ window $ output_arg)

(* --- corrupt (fault-injection harness) --- *)

let corrupt_cmd =
  let fault =
    let doc =
      "Fault to inject: one of $(b,truncate), $(b,mangle), $(b,nan), $(b,self-loop), \
       $(b,negative-id), $(b,window-lie), $(b,reorder), $(b,duplicate) for trace files, \
       or $(b,ckpt-truncate), $(b,ckpt-flip), $(b,ckpt-stale) for checkpoint files \
       (binary faults: truncated tail, one flipped payload byte, a stale fingerprint \
       re-sealed with a valid CRC)."
    in
    let fault_conv = Arg.enum (List.map (fun n -> (n, n)) Faultgen.all_names) in
    Arg.(required & opt (some fault_conv) None & info [ "fault" ] ~docv:"NAME" ~doc)
  in
  let run path seed fault output =
    protect @@ fun () ->
    let fault =
      match Faultgen.of_name fault with
      | Some f -> f
      | None -> usage_err "unknown fault %S" fault
    in
    let text = Omn_robust.Atomic_file.read_to_string path in
    let corrupted = Faultgen.apply ~seed fault text in
    match output with
    | Some out ->
      Omn_robust.Atomic_file.write_string out corrupted;
      Format.printf "wrote %s (fault: %s)@." out (Faultgen.name fault)
    | None -> print_string corrupted
  in
  Cmd.v
    (Cmd.info "corrupt"
       ~doc:
         "Deterministically corrupt a trace file (fault-injection harness for testing \
          the lenient ingestion and recovery paths)")
    Term.(const run $ trace_arg $ seed_arg $ fault $ output_arg)

(* --- worker (shard worker process, spawned by the coordinator) --- *)

let worker_cmd =
  let id =
    Arg.(
      value
      & opt int (-1)
      & info [ "id" ] ~docv:"N"
          ~doc:
            "Worker index assigned by the coordinator. $(b,-1) (default) joins as a \
             new member: the coordinator assigns the next free id.")
  in
  let connect =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Dial the coordinator at $(docv) (a Unix-domain socket path or \
             $(b,host:port)) and redial on link loss.")
  in
  let sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "sock" ] ~docv:"PATH"
          ~doc:"Compatibility alias for $(b,--connect) with a Unix-domain socket path.")
  in
  let listen =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen on $(docv) ($(b,host:port), port $(b,0) picks a free one and \
             prints it) and serve coordinator connections — the multi-machine worker \
             shape ($(b,delay-cdf --workers host:port,...)).")
  in
  let auth_key =
    Arg.(
      value
      & opt (some string) None
      & info [ "auth-key" ] ~docv:"KEY"
          ~doc:
            "Pre-shared key for the HMAC-SHA-256 handshake; defaults to \
             $(b,OMN_SHARD_KEY) in the environment.")
  in
  let trace_cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed trace store: traces are kept by SHA-256 digest \
             (CRC-framed, atomically written), so a rejoin or a later job over the \
             same trace re-ships zero bytes.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"With $(b,--listen): exit after the first cleanly shut-down session.")
  in
  let run id connect sock listen auth_key trace_cache once =
    protect @@ fun () ->
    let mode =
      match (connect, sock, listen) with
      | Some a, None, None -> Omn_shard.Worker.Dial a
      | None, Some p, None -> Omn_shard.Worker.Dial (Transport.Unix_path p)
      | None, None, Some a -> Omn_shard.Worker.Listen a
      | None, None, None -> usage_err "need one of --connect, --sock or --listen"
      | _ -> usage_err "give only one of --connect, --sock or --listen"
    in
    match
      Omn_shard.Worker.main ~worker:id ~mode
        ?auth_key:(auth_key_resolve auth_key)
        ?trace_cache ~once ()
    with
    | Ok () -> ()
    | Error e -> raise (Err.Error e)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Shard worker process. Either spawned by the coordinator behind $(b,delay-cdf \
          --workers N) (it dials back over the coordinator's socket), or pre-started \
          with $(b,--listen host:port) on another machine and named in $(b,delay-cdf \
          --workers host:port,...). Computes per-source partials on demand and ships \
          them back CRC-framed; authentication and protocol rejections exit 2 with a \
          typed $(b,E-AUTH)/$(b,E-PROTO) error.")
    Term.(const run $ id $ connect $ sock $ listen $ auth_key $ trace_cache $ once)

(* --- chaos (resilience harness) --- *)

let chaos_cmd =
  let fail fmt = Format.kasprintf (fun msg -> raise (Err.Error (Err.v Err.Compute msg))) fmt in
  let ok what = Format.printf "chaos: %-46s OK@." what in
  let run seed domains shard metrics =
    protect_code @@ fun () ->
    let domains = Omn_parallel.Pool.resolve domains in
    with_obs ?metrics @@ fun () ->
    let module RI = Omn_robust.Retry_io in
    let horizon = 4. *. 3600. in
    let trace =
      Omn_randnet.Continuous.generate (Omn_stats.Rng.create seed)
        { n = 24; lambda = 3. /. 3600.; horizon }
    in
    let grid = Omn_stats.Grid.logarithmic ~lo:10. ~hi:horizon ~n:40 in
    let max_hops = 6 in
    Fun.protect
      ~finally:(fun () ->
        RI.set_inject None;
        Supervise.set_task_fault None)
    @@ fun () ->
    (* 1. Transient I/O faults: a trace read that fails twice with
       injected faults still succeeds through the retry wrapper. *)
    let tmp = Filename.temp_file "omn-chaos" ".omn" in
    Omn_temporal.Trace_io.save trace tmp;
    let remaining = Atomic.make 2 in
    RI.set_inject
      (Some
         (fun ~op ~path ->
           if op = "read" && path = tmp && Atomic.fetch_and_add remaining (-1) > 0 then
             raise (RI.Injected "chaos read fault")));
    (match Omn_temporal.Trace_io.load_result tmp with
    | Ok _ -> ok "transient read faults retried"
    | Error e -> fail "retried read still failed: %s" (Err.to_string e));
    RI.set_inject None;
    (try Sys.remove tmp with Sys_error _ -> ());
    (* 2. Supervised degraded run: poisoned sources fail every attempt
       and must be quarantined exactly; flaky sources fail once and must
       recover; the surviving curves must be bit-identical to a
       fault-free run over the surviving sources. *)
    let n = Omn_temporal.Trace.n_nodes trace in
    let poisoned = [ 3; 11 ] and flaky = [ 5; 17 ] in
    Supervise.set_task_fault
      (Some
         (fun ~item ~attempt ->
           if List.mem item poisoned then failwith "chaos: poisoned source"
           else if List.mem item flaky && attempt = 0 then failwith "chaos: flaky source"));
    let policy = { Supervise.default with backoff = 1e-4; backoff_max = 1e-3 } in
    let plan = Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops ~grid trace) in
    let degraded_run =
      Omn_core.Driver.run ~domains ~supervise:policy ~clock:Unix.gettimeofday plan
    in
    Supervise.set_task_fault None;
    (match degraded_run with
    | Error e -> raise (Err.Error e)
    | Ok { curves; progress = p; _ } ->
      if p.partial then fail "degraded run did not complete";
      let quarantined =
        List.sort compare (List.map (fun (f : Supervise.failure) -> f.item) p.degraded)
      in
      if quarantined <> List.sort compare poisoned then
        fail "expected quarantined {%s}, got {%s}"
          (String.concat "," (List.map string_of_int poisoned))
          (String.concat "," (List.map string_of_int quarantined));
      ok "poisoned sources quarantined exactly";
      let survivors = List.filter (fun s -> not (List.mem s poisoned)) (List.init n Fun.id) in
      let reference = Omn_core.Delay_cdf.compute ~max_hops ~grid ~sources:survivors trace in
      if curves <> reference then
        fail "degraded curves differ from the fault-free run over surviving sources";
      ok "surviving results bit-identical");
    (* 3. Checkpoint corruption: build two generations with budgeted
       runs, flip a payload byte in the current one; resume must fall
       back to .prev and still finish bit-identical to an uninterrupted
       run. *)
    let ckpt = Filename.temp_file "omn-chaos" ".ckpt" in
    let step ?(resume = false) ?budget_seconds ?checkpoint label =
      match
        Omn_core.Driver.run ~domains ?checkpoint ~resume ~checkpoint_every:4 ?budget_seconds
          ~clock:Unix.gettimeofday plan
      with
      | Error e -> fail "%s: %s" label (Err.to_string e)
      | Ok o -> o
    in
    let r1 = step ~checkpoint:ckpt ~budget_seconds:0. "budgeted run 1" in
    if not r1.progress.partial then fail "budgeted run 1 unexpectedly completed";
    ignore (step ~checkpoint:ckpt ~resume:true ~budget_seconds:0. "budgeted run 2");
    let data = RI.read_to_string ckpt in
    RI.write_string ckpt (Faultgen.apply ~seed Faultgen.Ckpt_flip data);
    let r3 = step ~checkpoint:ckpt ~resume:true "resumed run" in
    if not r3.progress.ckpt_fallback then fail "corrupt checkpoint did not fall back to .prev";
    if r3.progress.partial then fail "resumed run did not complete";
    ok "corrupt checkpoint fell back to .prev";
    if r3.curves <> Omn_core.Delay_cdf.compute ~max_hops ~grid trace then
      fail "resumed-after-corruption result differs from the uninterrupted run";
    if Sys.file_exists ckpt || Sys.file_exists (Omn_robust.Checkpoint.prev_path ckpt) then
      fail "completed run left checkpoint generations behind";
    ok "post-fallback result bit-identical";
    (* 4. The forwarding pipeline still runs to completion in the same
       process after all that fault injection. *)
    let stats =
      Omn_forwarding.Sim.evaluate ~domains (Omn_stats.Rng.create seed) trace
        ~protocols:[ Omn_forwarding.Protocol.Direct; Omn_forwarding.Protocol.Two_hop ]
        ~messages:40 ~deadline:3600.
    in
    if stats = [] then fail "forwarding simulation returned no stats";
    ok "forwarding pipeline completed";
    (* 5-8. Sharded execution under process-level faults (--shard):
       worker crashes, hangs and corrupted frames must never lose or
       double-count a source, and the merged curves must stay
       byte-identical to the single-process run. *)
    if shard then begin
      let sh_workers = 3 in
      let sh_n = 12 in
      let strace =
        Omn_randnet.Continuous.generate
          (Omn_stats.Rng.create (seed + 1))
          { n = sh_n; lambda = 6. /. 3600.; horizon = 3600. }
      in
      let sgrid = Omn_stats.Grid.logarithmic ~lo:10. ~hi:3600. ~n:20 in
      let smax = 4 in
      let reference = Omn_core.Delay_cdf.compute ~max_hops:smax ~grid:sgrid strace in
      let sh_cfg ?(workers = sh_workers) ?(chaos = []) ?ckpt_dir () =
        {
          (Shard.default ~workers) with
          Shard.heartbeat_interval = 0.05;
          heartbeat_timeout = 2.;
          respawn_backoff = 0.05;
          (* a 2-source in-flight window makes every fault observable by
             construction: at most 6 initial + 3 ack-freed dispatches can
             precede the last chaos event, so a killed or hung victim
             always strands undispatched work — completion then requires
             failover, never just draining the socket buffer *)
          max_inflight = 2;
          chaos;
          ckpt_dir;
        }
      in
      let splan = Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops:smax ~grid:sgrid strace) in
      let run_shard label cfg =
        match
          Shard.with_fleet cfg splan (fun partials_of -> Omn_core.Driver.run ~partials_of splan)
        with
        | Error e | Ok (Error e, _) -> fail "%s: %s" label (Err.to_string e)
        | Ok (Ok { curves; progress = p; _ }, st) ->
          if p.Omn_core.Delay_cdf.partial then fail "%s: unexpectedly partial" label;
          if p.degraded <> [] then fail "%s: unexpectedly degraded" label;
          if p.sources_done <> sh_n then
            fail "%s: %d of %d sources acknowledged" label p.sources_done sh_n;
          if curves <> reference then
            fail "%s: curves differ from the single-process run" label;
          st
      in
      let _ = run_shard "clean sharded run" (sh_cfg ()) in
      ok "sharded run bit-identical (3 workers)";
      let dir = Filename.temp_file "omn-chaos-shard" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let kill_all =
        [
          { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Worker_kill };
          { Faultgen.after_results = 2; victim = 1; shard_fault = Faultgen.Worker_kill };
          { Faultgen.after_results = 3; victim = 2; shard_fault = Faultgen.Worker_kill };
        ]
      in
      let st = run_shard "kill-every-worker run" (sh_cfg ~chaos:kill_all ~ckpt_dir:dir ()) in
      if st.Shard.spawns <= sh_workers then
        fail "kill-every-worker run finished without a respawn";
      ok "every worker killed: respawn + failover, no source lost";
      let hang = [ { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Worker_hang } ] in
      let st = run_shard "hung-worker run" (sh_cfg ~workers:1 ~chaos:hang ~ckpt_dir:dir ()) in
      if st.Shard.heartbeat_misses < 1 then fail "hung worker was never detected";
      ok "hung worker detected by heartbeat and replaced";
      let corrupt =
        [ { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Sock_corrupt } ]
      in
      let st = run_shard "corrupt-frame run" (sh_cfg ~workers:1 ~chaos:corrupt ~ckpt_dir:dir ()) in
      if st.Shard.frame_corrupts < 1 then fail "corrupt frame was never rejected";
      ok "corrupt frame rejected by CRC, connection replaced";
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      (* 9-15. Multi-machine shapes over loopback TCP: authenticated
         handshake on every link, link-level chaos, dynamic membership
         and the digest-addressed trace store. Identity with the
         single-process run is asserted by [run_shard] every time. *)
      let key = "chaos-preshared-key" in
      let tcp_cfg ?(workers = sh_workers) ?(chaos = []) ?worker_trace_cache () =
        {
          (sh_cfg ~workers ~chaos ()) with
          Shard.listen = Some (Transport.Tcp ("127.0.0.1", 0));
          auth_key = Some key;
          worker_trace_cache;
        }
      in
      let _ = run_shard "clean TCP run" (tcp_cfg ()) in
      ok "TCP fleet bit-identical (auth on every link)";
      let partition =
        [ { Faultgen.after_results = 2; victim = 0; shard_fault = Faultgen.Net_partition } ]
      in
      let st = run_shard "net-partition run" (tcp_cfg ~chaos:partition ()) in
      if st.Shard.partitions < 1 then fail "partition was never injected";
      ok "partitioned link: no acked progress lost, merge identical";
      let slow =
        [ { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Net_slow } ]
      in
      let st = run_shard "net-slow run" (tcp_cfg ~chaos:slow ()) in
      if st.Shard.heartbeat_misses > 0 then fail "slow link was declared dead";
      ok "slow link delayed within bound, never declared dead";
      let dup =
        [ { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Net_dup } ]
      in
      let st = run_shard "net-dup run" (tcp_cfg ~chaos:dup ()) in
      if st.Shard.duplicates < 1 then fail "duplicated result was not dropped";
      ok "duplicated result dropped by at-most-once merge";
      let bad =
        [ { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Auth_bad } ]
      in
      let st = run_shard "auth-bad run" (tcp_cfg ~chaos:bad ()) in
      if st.Shard.auth_rejects < 1 then fail "wrong-key joiner was not rejected";
      ok "wrong-key joiner rejected typed (E-AUTH), run unaffected";
      let membership =
        [
          { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Worker_join };
          { Faultgen.after_results = 4; victim = 1; shard_fault = Faultgen.Worker_leave };
        ]
      in
      let st = run_shard "membership run" (tcp_cfg ~chaos:membership ()) in
      if st.Shard.joins < 1 then fail "worker-join was never admitted";
      if st.Shard.leaves < 1 then fail "worker-leave never departed";
      ok "join + leave mid-run, merge identical";
      let store = Filename.temp_file "omn-chaos-store" "" in
      Sys.remove store;
      Unix.mkdir store 0o700;
      let st = run_shard "cold-store run" (tcp_cfg ~worker_trace_cache:store ()) in
      if st.Shard.trace_ship_bytes <= 0 then fail "cold store shipped no trace bytes";
      let st = run_shard "warm-store run" (tcp_cfg ~worker_trace_cache:store ()) in
      if st.Shard.trace_ship_bytes <> 0 then
        fail "warm digest cache still shipped %d byte(s)" st.Shard.trace_ship_bytes;
      if st.Shard.trace_cache_hits < sh_workers then fail "warm store missed a cache hit";
      ok "digest store: warm workers re-ship zero trace bytes";
      Array.iter
        (fun f -> try Sys.remove (Filename.concat store f) with Sys_error _ -> ())
        (Sys.readdir store);
      try Unix.rmdir store with Unix.Unix_error _ -> ()
    end;
    Format.printf "chaos: all scenarios passed; exit %d (degraded-but-complete)@." exit_degraded;
    exit_degraded
  in
  let shard_flag =
    let doc =
      "Also run the sharded-execution scenarios: worker-kill, worker-hang and \
       sock-corrupt faults against multi-process runs, plus the loopback-TCP fleet \
       under net-partition, net-slow, net-dup, auth-bad, membership changes and the \
       digest-addressed trace store (spawns real worker processes)."
    in
    Arg.(value & flag & info [ "shard" ] ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the delay-cdf / diameter / forwarding pipeline under injected faults and \
          assert the resilience guarantees (internal testing harness). Exits with code 3: \
          the run completes degraded by construction.")
    Term.(const run $ seed_arg $ domains_arg $ shard_flag $ metrics_arg)

(* --- forward --- *)

let forward_cmd =
  let messages =
    Arg.(value & opt int 200 & info [ "messages" ] ~docv:"M" ~doc:"Random messages to send.")
  in
  let deadline =
    Arg.(
      value & opt float 86400. & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Delivery deadline.")
  in
  let ttl =
    Arg.(
      value & opt (some int) None & info [ "ttl" ] ~docv:"K" ~doc:"Epidemic hop TTL to include.")
  in
  let run path ingest lenient seed messages deadline ttl domains metrics trace_out progress
      output =
    protect @@ fun () ->
    let domains = Omn_parallel.Pool.resolve domains in
    with_obs ?metrics ?trace_out @@ fun () ->
    let trace = load_trace ~policy:ingest ~lenient path in
    trace_manifest ~path ~seed ~domains
      ~config:
        Omn_obs.Json.
          [
            ("messages", Int messages); ("deadline", Float deadline);
            ("ttl", match ttl with Some k -> Int k | None -> Null);
          ]
      trace;
    let protocols =
      Omn_forwarding.Protocol.
        [
          Epidemic { ttl = None }; Epidemic { ttl };
          Spray_and_wait { copies = 8 }; Two_hop; First_contact; Direct;
        ]
      |> List.sort_uniq compare
    in
    let report, finish = progress_reporter ~enabled:progress "messages" in
    (* Sim reports only counts; forwarding has no supervision layer. *)
    let report =
      Option.map (fun r ~done_ ~total -> r ~done_ ~total ~degraded:0 ~fallback:false) report
    in
    let stats =
      Omn_forwarding.Sim.evaluate ~domains ?progress:report (Omn_stats.Rng.create seed) trace
        ~protocols ~messages ~deadline
    in
    finish ();
    match output with
    | Some f ->
      let open Omn_obs.Json in
      write_json f
        (json_with_manifest
           [
             ( "stats",
               List
                 (List.map
                    (fun (s : Omn_forwarding.Sim.stats) ->
                      Obj
                        [
                          ("protocol", String (Omn_forwarding.Protocol.name s.protocol));
                          ("delivered_ratio", Float s.delivered_ratio);
                          ("mean_delay", Float s.mean_delay);
                          ("mean_transmissions", Float s.mean_transmissions);
                          ("mean_nodes_reached", Float s.mean_nodes_reached);
                        ])
                    stats) );
           ]);
      Format.printf "wrote %s@." f
    | None ->
      Format.printf "%-20s %-10s %-12s %-8s %s@." "protocol" "delivered" "mean delay" "tx/msg"
        "nodes";
      List.iter
        (fun (s : Omn_forwarding.Sim.stats) ->
          Format.printf "%-20s %6.1f%%    %-12s %-8.1f %.1f@."
            (Omn_forwarding.Protocol.name s.protocol)
            (100. *. s.delivered_ratio)
            (if Float.is_nan s.mean_delay then "-"
             else Omn_stats.Timefmt.duration s.mean_delay)
            s.mean_transmissions s.mean_nodes_reached)
        stats
  in
  Cmd.v
    (Cmd.info "forward" ~doc:"Evaluate forwarding protocols on a trace")
    Term.(
      const run $ trace_arg $ ingest_arg $ lenient_arg $ seed_arg $ messages $ deadline $ ttl
      $ domains_arg $ metrics_arg $ trace_out_arg $ progress_arg $ output_arg)

(* --- theory --- *)

let theory_cmd =
  let lambda =
    Arg.(value & opt float 0.5 & info [ "lambda" ] ~docv:"RATE" ~doc:"Contact rate per node per slot.")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Network size.") in
  let run lambda n =
    protect @@ fun () ->
    let open Omn_randnet in
    List.iter
      (fun (case, label) ->
        let tau = Theory.tau_critical case ~lambda in
        Format.printf "%s contacts:@." label;
        if tau = 0. then
          Format.printf "  supercritical (lambda >= 1): paths exist at any delay coefficient@."
        else
          Format.printf "  critical delay  tau* = %.4f  (~ %.1f slots at N = %d)@." tau
            (Theory.expected_delay case ~lambda ~n)
            n;
        let k = Theory.hop_coefficient case ~lambda in
        if k = infinity then Format.printf "  hop coefficient diverges at lambda = 1@."
        else
          Format.printf "  hop coefficient %.4f  (~ %.1f hops at N = %d)@." k
            (Theory.expected_hops case ~lambda ~n)
            n)
      [ (Theory.Short, "short"); (Theory.Long, "long") ]
  in
  Cmd.v
    (Cmd.info "theory" ~doc:"Closed-form predictions for random temporal networks (section 3)")
    Term.(const run $ lambda $ n)

(* --- report --- *)

let report_cmd =
  let result_pos =
    let doc = "A result JSON written by $(b,omn delay-cdf/diameter/forward -o) (manifest echo)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"RESULT" ~doc)
  in
  let metrics_in =
    let doc = "Metrics snapshot JSON (from $(b,--metrics)) to fold into the report." in
    Arg.(value & opt (some file) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let timeline_in =
    let doc =
      "Exported timeline (Chrome trace JSON from $(b,--trace-out)): per-domain \
       busy/idle/steal breakdown, chunk straggler detection, checkpoint latency \
       percentiles, dropped-event count."
    in
    Arg.(value & opt (some file) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let json_flag =
    let doc = "Emit the report as JSON (schema $(b,omn-report 1)) instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let fail_dropped =
    let doc =
      "Exit with code 1 when the run dropped timeline events (ring overflow, from the \
       trace footer or the $(b,timeline.dropped_events) metrics counter) — the trace \
       is incomplete and CI should say so."
    in
    Arg.(value & flag & info [ "fail-dropped" ] ~doc)
  in
  let fleet_flag =
    let doc =
      "Require the per-worker fleet section (busy/idle, trace-ship bytes, cache hits, \
       stragglers, clock offsets): error out unless $(b,--timeline) is a fleet-merged \
       trace from a $(b,--workers) run. The section is also rendered without this \
       flag whenever the input carries it."
    in
    Arg.(value & flag & info [ "fleet" ] ~doc)
  in
  let run result metrics timeline json fail_dropped fleet output =
    protect_code @@ fun () ->
    if result = None && metrics = None && timeline = None then
      usage_err "need at least one input: RESULT, --metrics FILE or --timeline FILE";
    let parse what path =
      match Omn_obs.Json.of_string (Omn_robust.Retry_io.read_to_string path) with
      | Ok j -> j
      | Error msg -> usage_err "%s %s: %s" what path msg
    in
    let report =
      Omn_obs.Report.build
        ?metrics:(Option.map (parse "metrics") metrics)
        ?timeline:(Option.map (parse "timeline") timeline)
        ?result:(Option.map (parse "result") result)
        ()
    in
    if fleet && Omn_obs.Json.member "fleet" report = Some Omn_obs.Json.Null then
      usage_err
        "--fleet: no per-worker telemetry in the input — pass a --timeline exported \
         from a --workers run with --trace-out";
    (if json then begin
       match output with
       | Some f ->
         write_json f report;
         Format.printf "wrote %s@." f
       | None -> print_string (Omn_obs.Json.to_string ~pretty:true report ^ "\n")
     end
     else Format.printf "%a" Omn_obs.Report.pp report);
    let dropped = Omn_obs.Report.dropped_events report in
    if fail_dropped && dropped > 0 then begin
      Format.eprintf "omn report: %d timeline event(s) dropped (ring overflow) — raise the \
                      ring capacity or checkpoint more often@."
        dropped;
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyse a finished run from its artifacts: manifest echo, per-domain busy/idle \
          breakdown, straggler and load-imbalance detection, checkpoint latency, \
          retry/quarantine summary")
    Term.(
      const run $ result_pos $ metrics_in $ timeline_in $ json_flag $ fail_dropped
      $ fleet_flag $ output_arg)

(* --- experiments passthrough --- *)

let experiment_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Experiment id (fig1..fig12, table1, phase, fig3sim).")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small workload.") in
  let run name quick =
    match Omn_experiments.Registry.find name with
    | Some e ->
      protect @@ fun () -> e.run ~quick Format.std_formatter
    | None ->
      Format.eprintf "unknown experiment %S; known:@." name;
      List.iter
        (fun (e : Omn_experiments.Registry.experiment) -> Format.eprintf "  %s@." e.name)
        Omn_experiments.Registry.all;
      2
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one paper experiment (same engine as bench/main.exe)")
    Term.(const run $ exp_name $ quick)

(* Cmdliner reads a bare negative option value (`--id -1`) as an
   unknown flag; glue such pairs into `--id=-1` before parsing so both
   spellings work (a joiner's id is -1 by design). *)
let glue_negative_optargs argv =
  let negative s = match int_of_string_opt s with Some v -> v < 0 | None -> false in
  let n = Array.length argv in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if argv.(!i) = "--id" && !i + 1 < n && negative argv.(!i + 1) then begin
      out := Printf.sprintf "--id=%s" argv.(!i + 1) :: !out;
      i := !i + 2
    end
    else begin
      out := argv.(!i) :: !out;
      incr i
    end
  done;
  Array.of_list (List.rev !out)

let () =
  let doc = "The diameter of opportunistic mobile networks — toolkit" in
  let info = Cmd.info "omn" ~version:omn_version ~doc in
  exit
    (Cmd.eval' ~argv:(glue_negative_optargs Sys.argv)
       (Cmd.group info
          [
            gen_cmd; stats_cmd; diameter_cmd; delay_cdf_cmd; delivery_cmd; transform_cmd;
            corrupt_cmd; chaos_cmd; worker_cmd; forward_cmd; theory_cmd; report_cmd;
            experiment_cmd;
          ]))
