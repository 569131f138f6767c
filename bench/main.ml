(* Reproduction harness: regenerates every table and figure of
   "The Diameter of Opportunistic Mobile Networks" (CoNEXT 2007).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig9  # one experiment
     dune exec bench/main.exe -- --quick      # small workloads (smoke)
     dune exec bench/main.exe -- --timing     # Bechamel micro/meso benches
     dune exec bench/main.exe -- --list       # experiment index *)

let fmt = Format.std_formatter

(* The shard bench block's coordinator re-executes this binary as a
   worker. *)
let () = Omn_shard.Worker.hatch ()

(* --- Bechamel timing benches: the §4.4 efficiency claims --- *)

let timing_tests () =
  let open Bechamel in
  let rng = Omn_stats.Rng.create 7 in
  (* Synthetic workload: venue-based half-day, sized by node count. *)
  let conference_trace n =
    let params = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.5 in
    Omn_mobility.Venue.generate rng ~n ~name:"bench" params
  in
  let traces = List.map (fun n -> (n, conference_trace n)) [ 20; 40; 80 ] in
  let trace_of n = List.assoc n traces in
  let journey_one_source =
    Test.make_indexed ~name:"journey/all-dest-all-times" ~fmt:"%s:%d-nodes"
      ~args:(List.map fst traces) (fun n ->
        Staged.stage (fun () -> ignore (Omn_core.Journey.run (trace_of n) ~source:0)))
  in
  let dijkstra_sweep =
    (* The prior-art baseline: one earliest-arrival search per contact
       boundary (x2 for midpoints) yields the same delivery functions as
       one Journey.run. *)
    Test.make_indexed ~name:"dijkstra/per-start-time-sweep" ~fmt:"%s:%d-nodes"
      ~args:(List.map fst traces) (fun n ->
        Staged.stage (fun () ->
            ignore (Omn_baseline.Flooding.compute (trace_of n) ~source:0)))
  in
  let frontier_insert =
    let points =
      Array.init 4096 (fun _ ->
          Omn_core.Ld_ea.make
            ~ld:(Omn_stats.Rng.float rng *. 1000.)
            ~ea:(Omn_stats.Rng.float rng *. 1000.))
    in
    Test.make ~name:"frontier/insert-4096"
      (Staged.stage (fun () ->
           let f = Omn_core.Frontier.create () in
           Array.iter (fun p -> ignore (Omn_core.Frontier.insert f p)) points))
  in
  let delay_cdf_accumulate =
    let trace = trace_of 40 in
    let frontiers, _ = Omn_core.Journey.run trace ~source:0 in
    let snapshots = Array.map Omn_core.Frontier.to_array frontiers in
    let t_start = Omn_temporal.Trace.t_start trace
    and t_end = Omn_temporal.Trace.t_end trace in
    Test.make ~name:"delay-cdf/accumulate-40-dests"
      (Staged.stage (fun () ->
           let acc = Omn_core.Delay_cdf.create ~grid:Omn_stats.Grid.delay_default in
           Array.iteri
             (fun dest snap ->
               if dest <> 0 then Omn_core.Delay_cdf.add_pair acc ~t_start ~t_end snap)
             snapshots))
  in
  let discrete_flood =
    Test.make ~name:"randnet/flood-short-n400"
      (Staged.stage (fun () ->
           ignore
             (Omn_randnet.Discrete.flood rng { Omn_randnet.Discrete.n = 400; lambda = 0.5 }
                ~source:0 ~case:Omn_randnet.Theory.Short ~t_max:40)))
  in
  let journey_ablation =
    (* Ablation (DESIGN 5.1): semi-naive deltas vs full recomputation. *)
    let trace = trace_of 40 in
    Test.make_indexed ~name:"journey/strategy" ~fmt:"%s:%d(0=semi,1=full)" ~args:[ 0; 1 ]
      (fun mode ->
        let strategy =
          if mode = 0 then Omn_core.Journey.Semi_naive else Omn_core.Journey.Full_recompute
        in
        Staged.stage (fun () -> ignore (Omn_core.Journey.run ~strategy trace ~source:0)))
  in
  let curves_domains =
    (* Ablation: the parallel driver on a fixed mid-size workload. *)
    let trace = trace_of 40 in
    Test.make_indexed ~name:"delay-cdf/compute" ~fmt:"%s:%d-domains" ~args:[ 1; 2; 4 ]
      (fun domains ->
        Staged.stage (fun () ->
            ignore (Omn_core.Delay_cdf.compute ~max_hops:6 ~domains trace)))
  in
  [
    journey_one_source; dijkstra_sweep; frontier_insert; delay_cdf_accumulate; discrete_flood;
    journey_ablation; curves_domains;
  ]

let run_timing () =
  let open Bechamel in
  let open Toolkit in
  Format.fprintf fmt "@.Timing (Bechamel, monotonic clock; ns per run)@.@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.) () in
  let instances = [ Instance.monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
      List.iter
        (fun (name, v) ->
          let estimate =
            match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> nan
          in
          let r2 = Option.value (Analyze.OLS.r_square v) ~default:nan in
          Format.fprintf fmt "  %-44s %14.0f ns/run  (r2 %.3f)@." name estimate r2)
        (List.sort compare rows))
    (timing_tests ());
  Format.fprintf fmt
    "@.journey/all-dest-all-times computes optimal paths for *all* start times and@.\
     destinations in one pass; dijkstra/per-start-time-sweep is the prior-art cost@.\
     of the same information.@."

(* --- Parallel regression bench: BENCH_delay_cdf.json --- *)

(* Wall-clock regression harness for the omn_parallel port of
   Delay_cdf.compute: times the 80-node workload at 1/2/4 domains,
   checks the curves are bit-identical across domain counts, measures
   the overhead of enabling the metrics registry, and emits a
   machine-readable report (with the span tree and key observability
   counters folded in) that CI archives. With [enforce] set, the
   2-domain run must be at least [min_speedup] times faster than the
   1-domain run or the process fails — except on hosts where the
   runtime recommends < 2 domains (a 1-core container cannot exhibit a
   speedup); the skip is stamped visibly into the JSON as
   ["gate"]["status"] = "skipped", never silently. [max_prune_ratio]
   optionally gates frontier churn: the instrumented rerun's
   points_pruned / points_kept must not regress above the recorded
   baseline. *)
let bench_parallel ~quick ~enforce ~min_speedup ~max_prune_ratio () =
  let rng = Omn_stats.Rng.create 11 in
  let n = 80 in
  (* Always the full half-day trace: a smaller workload is dominated by
     pool-spawn overhead and measures nothing. --quick only cuts repeats. *)
  let days = 0.5 in
  let params = Omn_mobility.Venue.conference_params ~rng ~n ~days in
  let trace = Omn_mobility.Venue.generate rng ~n ~name:"bench-parallel" params in
  (* The provenance manifest opens now and is [finish]ed only when the
     artifact is written, so started/finished bracket the measured runs
     (the old code created and finished it at JSON-build time, stamping
     a microseconds-wide window over a multi-second bench). *)
  let manifest =
    Omn_obs.Manifest.create ~version:"bench"
      ~trace_sha256:(Omn_obs.Sha256.string (Omn_temporal.Trace_io.to_string trace))
      ~trace_name:(Omn_temporal.Trace.name trace) ~n_nodes:n
      ~n_contacts:(Omn_temporal.Trace.n_contacts trace) ()
  in
  let max_hops = 6 in
  let repeats = if quick then 2 else 3 in
  let time_compute domains =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      let curves = Omn_core.Delay_cdf.compute ~max_hops ~domains trace in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some curves
    done;
    match !result with Some c -> (c, !best) | None -> assert false
  in
  (* Pure timing runs happen with the registry off, whatever the global
     --metrics flag says, so the speedup numbers stay comparable. *)
  let globally_enabled = Omn_obs.Metrics.enabled () in
  Omn_obs.Metrics.set_enabled false;
  let runs = List.map (fun d -> (d, time_compute d)) [ 1; 2; 4 ] in
  let base_curves, base_time = List.assoc 1 runs in
  let identical = List.for_all (fun (_, (c, _)) -> c = base_curves) runs in
  (* Observability overhead: the same workload with every counter,
     histogram and span live, against the matching-domain uninstrumented
     baseline. Instrumented at 2 domains when the host has them:
     [Pool.run] takes a sequential shortcut at 1 domain, so a 1-domain
     rerun never touches the pool counters and [pool.tasks_run] reads 0
     — the measured path must exercise the pool it claims to observe.
     Also checks bit-identity — instrumentation must never perturb
     results. *)
  let recommended = Omn_parallel.Pool.recommended () in
  let obs_domains = if recommended >= 2 then 2 else 1 in
  Omn_obs.Metrics.set_enabled true;
  let obs_curves, obs_time = time_compute obs_domains in
  let snap = Omn_obs.Metrics.snapshot () in
  Omn_obs.Metrics.set_enabled globally_enabled;
  let obs_identical = obs_curves = base_curves in
  let _, obs_base_time = List.assoc obs_domains runs in
  let obs_overhead = obs_time /. obs_base_time in
  let pool_tasks_run =
    Option.value ~default:0 (Omn_obs.Metrics.counter_total snap "pool.tasks_run")
  in
  (* Supervision overhead: the same 1-domain workload through the
     driver with the default fault-free retry/quarantine policy, against
     the [compute] baseline — one driver, one merge order, so the curves
     must be bit-identical and the wall-clock within a few percent
     (supervision is pure bookkeeping on the happy path). *)
  Omn_obs.Metrics.set_enabled false;
  let plan = Omn_robust.Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops trace) in
  let drive ?supervise () =
    match Omn_core.Driver.run ?supervise plan with
    | Ok o -> o.Omn_core.Driver.curves
    | Error e ->
      Format.fprintf fmt "FAIL: driver bench run errored: %s@." (Omn_robust.Err.to_string e);
      exit 1
  in
  let sup_curves, sup_time =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      let curves = drive ~supervise:Omn_parallel.Supervise.default () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some curves
    done;
    (Option.get !result, !best)
  in
  Omn_obs.Metrics.set_enabled globally_enabled;
  let sup_identical = sup_curves = base_curves in
  let sup_overhead = sup_time /. base_time in
  (* Timeline overhead: the same 1-domain driver workload with the
     event journal recording and a manifest stamped per traced repeat
     (metrics still off, isolating the ring-buffer + provenance cost).
     The driver is the one that emits batch events. Untraced and traced
     runs are interleaved and each side takes its own min, so clock
     drift between measurement windows cancels out of the ratio.
     Tracing must never perturb results — fatal if it does. *)
  Omn_obs.Metrics.set_enabled false;
  Omn_obs.Timeline.reset ();
  let tl_base = ref infinity and tl_time = ref infinity in
  let tl_curves = ref None in
  let timed_run () =
    let t0 = Unix.gettimeofday () in
    let curves = drive () in
    (curves, Unix.gettimeofday () -. t0)
  in
  for _ = 1 to repeats do
    Omn_obs.Timeline.set_enabled false;
    let _, dt = timed_run () in
    if dt < !tl_base then tl_base := dt;
    Omn_obs.Timeline.set_enabled true;
    let curves, dt = timed_run () in
    ignore
      (Omn_obs.Json.to_string
         (Omn_obs.Manifest.to_json (Omn_obs.Manifest.create ~version:"bench" ())));
    if dt < !tl_time then tl_time := dt;
    tl_curves := Some curves
  done;
  Omn_obs.Timeline.set_enabled false;
  let tl_view = Omn_obs.Timeline.snapshot () in
  Omn_obs.Metrics.set_enabled globally_enabled;
  let tl_identical = !tl_curves = Some base_curves in
  let tl_overhead = !tl_time /. !tl_base in
  let tl_time = !tl_time in
  (* Sampling: the sampled estimator against the exact engine on the
     same workload. Sampling must buy wall-clock (it touches a fraction
     of the sources) without losing the truth — the bootstrap CI has to
     contain the exact (1-eps)-diameter or the bench fails. Metrics
     stay off so the timings match the other blocks. *)
  Omn_obs.Metrics.set_enabled false;
  let time_best f =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let exact_res, exact_time = time_best (fun () -> Omn_core.Diameter.measure ~max_hops trace) in
  let sample = max 1 (n / 8) in
  let est, est_time =
    time_best (fun () ->
        match
          Omn_core.Diameter_est.estimate ~max_hops ~sample ~seed:1 ~ci_width:2. ~confidence:0.9
            ~bootstrap:200 trace
        with
        | Ok e -> e
        | Error e ->
          Format.fprintf fmt "FAIL: sampled bench run errored: %s@." (Omn_robust.Err.to_string e);
          exit 1)
  in
  Omn_obs.Metrics.set_enabled globally_enabled;
  (* [None] (no finite diameter) compares as one past the deepest hop
     bound, same sentinel the estimator's bootstrap uses. *)
  let sentinel = function Some k -> k | None -> max_hops + 1 in
  let exact_d = sentinel exact_res.Omn_core.Diameter.diameter in
  let est_covers =
    sentinel est.Omn_core.Diameter_est.ci_lo <= exact_d
    && exact_d <= sentinel est.Omn_core.Diameter_est.ci_hi
  in
  (* Shard: failover reassignment latency and digest-addressed trace
     shipping over an authenticated TCP loopback fleet. The kill run
     stamps the chaos Mark and the first Reassign into the timeline and
     reports the gap; the second run reuses the same trace store, so
     every worker must come up warm (zero bytes shipped, one cache hit
     per worker). Merge non-identity with the single-process driver is
     fatal, like the cross-domain identity gate. *)
  Omn_obs.Metrics.set_enabled false;
  let shard_workers = 2 in
  let shard_n = 32 in
  let shard_hops = 4 in
  let shard_trace =
    let srng = Omn_stats.Rng.create 23 in
    let params = Omn_mobility.Venue.conference_params ~rng:srng ~n:shard_n ~days:0.25 in
    Omn_mobility.Venue.generate srng ~n:shard_n ~name:"bench-shard" params
  in
  let shard_ref = Omn_core.Delay_cdf.compute ~max_hops:shard_hops shard_trace in
  let store_dir = Filename.temp_file "omn_bench_store" ".d" in
  Sys.remove store_dir;
  let shard_cfg chaos =
    {
      (Omn_shard.Coord.default ~workers:shard_workers) with
      Omn_shard.Coord.heartbeat_interval = 0.05;
      heartbeat_timeout = 5.;
      respawn_backoff = 0.01;
      max_inflight = 2;
      listen = Some (Omn_shard.Transport.Tcp ("127.0.0.1", 0));
      auth_key = Some "bench-preshared-key";
      worker_trace_cache = Some store_dir;
      chaos;
    }
  in
  let shard_plan =
    Omn_robust.Err.get_exn (Omn_core.Delay_cdf.plan ~max_hops:shard_hops shard_trace)
  in
  let run_shard label cfg =
    let t0 = Unix.gettimeofday () in
    match
      Omn_shard.Coord.with_fleet cfg shard_plan (fun partials_of ->
          Omn_core.Driver.run ~partials_of shard_plan)
    with
    | Error e | Ok (Error e, _) ->
      Format.fprintf fmt "FAIL: shard bench (%s): %s@." label (Omn_robust.Err.to_string e);
      exit 1
    | Ok (Ok { curves; progress = p; _ }, st) ->
      if p.Omn_core.Delay_cdf.partial || p.Omn_core.Delay_cdf.sources_done <> shard_n then begin
        Format.fprintf fmt "FAIL: shard bench (%s): incomplete merge@." label;
        exit 1
      end;
      if curves <> shard_ref then begin
        Format.fprintf fmt "FAIL: shard bench (%s): merge differs from the single-process run@."
          label;
        exit 1
      end;
      (st, Unix.gettimeofday () -. t0)
  in
  Omn_obs.Timeline.reset ();
  Omn_obs.Timeline.set_enabled true;
  let kill_st, kill_time =
    run_shard "cold store, worker-kill failover"
      (shard_cfg
         [
           {
             Omn_robust.Faultgen.after_results = 2;
             victim = 0;
             shard_fault = Omn_robust.Faultgen.Worker_kill;
           };
         ])
  in
  Omn_obs.Timeline.set_enabled false;
  let shard_tl = Omn_obs.Timeline.snapshot () in
  let best_of k label cfg =
    let st = ref None and best = ref infinity in
    for _ = 1 to k do
      let s, t = run_shard label cfg in
      if t < !best then best := t;
      st := Some s
    done;
    (Option.get !st, !best)
  in
  let warm_st, warm_time = best_of 3 "warm store, clean" (shard_cfg []) in
  (* Fleet telemetry: the same warm clean run with Stats_pull/Stats_push
     on. run_shard already makes merge non-identity fatal, so this
     measures what the telemetry plane costs when it changes nothing:
     overhead above the warn threshold is reported, not fatal (these
     runs are tens of milliseconds, so even best-of-3 carries noise). A
     worker that never reports is fatal — a silent telemetry loss would
     make every fleet report lie. *)
  let fleet_st, fleet_time =
    best_of 3 "warm store, telemetry on"
      { (shard_cfg []) with Omn_shard.Coord.telemetry = true; stats_interval = 0.1 }
  in
  Omn_obs.Metrics.set_enabled globally_enabled;
  let fleet_overhead = fleet_time /. warm_time in
  let fleet_warn_ratio = 1.03 in
  let fleet_events =
    List.fold_left
      (fun acc t -> acc + List.length t.Omn_shard.Coord.tw_events)
      0 fleet_st.Omn_shard.Coord.fleet
  in
  if List.length fleet_st.Omn_shard.Coord.fleet <> shard_workers then begin
    Format.fprintf fmt "FAIL: fleet telemetry: %d of %d workers reported@."
      (List.length fleet_st.Omn_shard.Coord.fleet)
      shard_workers;
    exit 1
  end;
  (* time from the chaos injection Mark to the first reassignment of the
     victim's unacknowledged work — the failover latency a real fleet
     would observe *)
  let reassign_latency =
    let events = shard_tl.Omn_obs.Timeline.events in
    match
      List.find_map
        (fun ((_, e) : int * Omn_obs.Timeline.entry) ->
          match e.ev with
          | Omn_obs.Timeline.Mark { name }
            when String.length name >= 6 && String.sub name 0 6 = "chaos:" ->
            Some e.ts
          | _ -> None)
        events
    with
    | None -> None
    | Some t0 ->
      List.find_map
        (fun ((_, e) : int * Omn_obs.Timeline.entry) ->
          match e.ev with
          | Omn_obs.Timeline.Reassign _ when e.ts >= t0 -> Some (e.ts -. t0)
          | _ -> None)
        events
  in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat store_dir f) with Sys_error _ -> ())
       (Sys.readdir store_dir);
     Unix.rmdir store_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let frontiers, _ = Omn_core.Journey.run trace ~source:0 in
  let sizes = Array.map Omn_core.Frontier.size frontiers in
  let max_frontier = Array.fold_left max 0 sizes in
  let mean_frontier =
    float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int (max 1 (Array.length sizes))
  in
  (* Gate verdicts are decided before the JSON is built so the artifact
     records them — a skipped gate on a 1-core host must be visible in
     the archived file, not only on a console nobody kept. *)
  let _, t2 = List.assoc 2 runs in
  let speedup2 = base_time /. t2 in
  let speedup_status, speedup_reason =
    if not enforce then ("off", "enforcement not requested (no --enforce-speedup)")
    else if recommended < 2 then
      ( "skipped",
        Printf.sprintf "host recommends %d domain(s); a >= 2-core host is required to measure a speedup"
          recommended )
    else if speedup2 >= min_speedup then
      ("passed", Printf.sprintf "measured %.2fx >= required %.2fx" speedup2 min_speedup)
    else ("failed", Printf.sprintf "measured %.2fx < required %.2fx" speedup2 min_speedup)
  in
  (* Frontier churn from the instrumented rerun: pruned/kept measures
     how much domination work the sweep does per surviving point. A
     regression above the recorded baseline means candidate emission got
     sloppier even if wall-clock hides it. *)
  let kept = Option.value ~default:0 (Omn_obs.Metrics.counter_total snap "frontier.points_kept") in
  let pruned =
    Option.value ~default:0 (Omn_obs.Metrics.counter_total snap "frontier.points_pruned")
  in
  let prune_ratio = if kept = 0 then 0. else float_of_int pruned /. float_of_int kept in
  let prune_status, prune_reason =
    match max_prune_ratio with
    | None -> ("off", "no --max-prune-ratio baseline given")
    | Some limit ->
      if prune_ratio <= limit then
        ("passed", Printf.sprintf "measured %.2f <= baseline %.2f" prune_ratio limit)
      else ("failed", Printf.sprintf "measured %.2f > baseline %.2f" prune_ratio limit)
  in
  let json =
    let open Omn_obs.Json in
    let snap_json = Omn_obs.Metrics.snapshot_to_json snap in
    let counter name = Int (Option.value ~default:0 (Omn_obs.Metrics.counter_total snap name)) in
    Obj
      [
        ("manifest", Omn_obs.Manifest.to_json (Omn_obs.Manifest.finish manifest));
        ("bench", String "delay_cdf.compute");
        ( "trace",
          Obj
            [
              ("nodes", Int n); ("contacts", Int (Omn_temporal.Trace.n_contacts trace));
              ("days", Float days);
            ] );
        ("max_hops", Int max_hops);
        ("repeats", Int repeats);
        ("quick", Bool quick);
        ("recommended_domains", Int recommended);
        ("bit_identical_across_domains", Bool identical);
        ("max_rounds_used", Int base_curves.Omn_core.Delay_cdf.max_rounds_used);
        ( "frontier",
          Obj
            [
              ("source", Int 0); ("max_size", Int max_frontier);
              ("mean_size", Float mean_frontier);
            ] );
        ( "obs",
          Obj
            [
              ("domains", Int obs_domains);
              ("overhead_ratio", Float obs_overhead);
              ("bit_identical_with_metrics", Bool obs_identical);
              ( "counters",
                Obj
                  (List.map
                     (fun name -> (name, counter name))
                     [
                       "frontier.points_kept"; "frontier.points_pruned"; "delay_cdf.pairs_done";
                       "delay_cdf.sources_done"; "pool.tasks_run"; "pool.tasks_stolen";
                     ]) );
              ( "pool_busy_seconds",
                Float (Option.value ~default:0. (Omn_obs.Metrics.gauge_total snap "pool.busy_seconds"))
              );
              ("spans", Option.value ~default:Null (member "spans" snap_json));
            ] );
        ( "resilience",
          Obj
            [
              ("overhead_ratio_1domain", Float sup_overhead);
              ("bit_identical_with_supervision", Bool sup_identical);
              ("seconds_unsupervised", Float base_time);
              ("seconds_supervised", Float sup_time);
            ] );
        ( "timeline",
          Obj
            [
              ("overhead_ratio_1domain", Float tl_overhead);
              ("bit_identical_with_timeline", Bool tl_identical);
              ("seconds_traced", Float tl_time);
              ("events_recorded", Int (List.length tl_view.Omn_obs.Timeline.events));
              ("dropped_events", Int (Omn_obs.Timeline.total_dropped tl_view));
            ] );
        ( "sampling",
          Obj
            [
              ("sample", Int sample);
              ("sampled", Int est.Omn_core.Diameter_est.sampled);
              ("total", Int est.Omn_core.Diameter_est.total);
              ("rounds", Int est.Omn_core.Diameter_est.rounds);
              ("seconds_exact", Float exact_time);
              ("seconds_sampled", Float est_time);
              ("speedup_vs_exact", Float (exact_time /. est_time));
              ( "exact_diameter",
                match exact_res.Omn_core.Diameter.diameter with Some k -> Int k | None -> Null );
              ( "ci_lo",
                match est.Omn_core.Diameter_est.ci_lo with Some k -> Int k | None -> Null );
              ( "ci_hi",
                match est.Omn_core.Diameter_est.ci_hi with Some k -> Int k | None -> Null );
              ("ci_width", Float est.Omn_core.Diameter_est.ci_width);
              ("covers_exact", Bool est_covers);
            ] );
        ( "shard",
          Obj
            [
              ("workers", Int shard_workers);
              ("sources", Int shard_n);
              ("transport", String "tcp-loopback+auth");
              ("seconds_kill_failover", Float kill_time);
              ("seconds_warm_clean", Float warm_time);
              ( "reassign_latency_seconds",
                match reassign_latency with Some s -> Float s | None -> Null );
              ("reassigned", Int kill_st.Omn_shard.Coord.reassigned);
              ("spawns_kill_run", Int kill_st.Omn_shard.Coord.spawns);
              ("trace_ship_bytes_cold", Int kill_st.Omn_shard.Coord.trace_ship_bytes);
              ("trace_ship_bytes_warm", Int warm_st.Omn_shard.Coord.trace_ship_bytes);
              ("trace_cache_hits_warm", Int warm_st.Omn_shard.Coord.trace_cache_hits);
            ] );
        ( "fleet_obs",
          Obj
            [
              ("workers_reporting", Int (List.length fleet_st.Omn_shard.Coord.fleet));
              ("seconds_telemetry_on", Float fleet_time);
              ("seconds_telemetry_off", Float warm_time);
              ("overhead_ratio", Float fleet_overhead);
              (* run_shard exits fatally on any merge divergence, so a
                 written artifact always carries [true] here *)
              ("bit_identical_with_telemetry", Bool true);
              ("timeline_events_pulled", Int fleet_events);
              ("overhead_warn_ratio", Float fleet_warn_ratio);
              ( "overhead_status",
                String (if fleet_overhead <= fleet_warn_ratio then "ok" else "warn") );
            ] );
        ( "runs",
          List
            (List.map
               (fun (d, (_, t)) ->
                 Obj
                   [
                     ("domains", Int d); ("seconds", Float t);
                     ("speedup_vs_1", Float (base_time /. t));
                   ])
               runs) );
        ( "gate",
          Obj
            [
              ("enforced", Bool enforce);
              ("min_speedup", Float min_speedup);
              ("measured_speedup_2domain", Float speedup2);
              ("status", String speedup_status);
              ("reason", String speedup_reason);
              ( "prune_ratio",
                Obj
                  [
                    ("points_kept", Int kept);
                    ("points_pruned", Int pruned);
                    ("measured", Float prune_ratio);
                    ( "max",
                      match max_prune_ratio with Some r -> Float r | None -> Null );
                    ("status", String prune_status);
                    ("reason", String prune_reason);
                  ] );
            ] );
      ]
  in
  let path = "BENCH_delay_cdf.json" in
  Omn_robust.Atomic_file.write_string path (Omn_obs.Json.to_string ~pretty:true json ^ "\n");
  Format.fprintf fmt "@.Parallel regression (delay-cdf, %d nodes, best of %d):@." n repeats;
  List.iter
    (fun (d, (_, t)) ->
      Format.fprintf fmt "  %d domain(s): %8.3fs  (%.2fx vs 1 domain)@." d t (base_time /. t))
    runs;
  Format.fprintf fmt "  curves bit-identical across domain counts: %b@." identical;
  Format.fprintf fmt
    "  metrics-on rerun (%d domain(s)): %.3fs (overhead x%.3f), bit-identical: %b, \
     pool.tasks_run: %d@."
    obs_domains obs_time obs_overhead obs_identical pool_tasks_run;
  Format.fprintf fmt "  supervised rerun: %.3fs (overhead x%.3f), bit-identical: %b@." sup_time
    sup_overhead sup_identical;
  Format.fprintf fmt
    "  timeline-on rerun: %.3fs (overhead x%.3f), bit-identical: %b, %d events (%d dropped)@."
    tl_time tl_overhead tl_identical
    (List.length tl_view.Omn_obs.Timeline.events)
    (Omn_obs.Timeline.total_dropped tl_view);
  let opt_str = function Some k -> string_of_int k | None -> "none" in
  Format.fprintf fmt
    "  sampling: exact %.3fs vs sampled %.3fs (%d of %d sources, %d round(s), x%.2f); CI [%s, \
     %s] width %.2f vs exact %s@."
    exact_time est_time est.Omn_core.Diameter_est.sampled est.Omn_core.Diameter_est.total
    est.Omn_core.Diameter_est.rounds (exact_time /. est_time)
    (opt_str est.Omn_core.Diameter_est.ci_lo)
    (opt_str est.Omn_core.Diameter_est.ci_hi)
    est.Omn_core.Diameter_est.ci_width
    (opt_str exact_res.Omn_core.Diameter.diameter);
  Format.fprintf fmt
    "  shard (TCP loopback, auth, %d workers): kill-failover %.3fs (reassign latency %s, %d \
     reassigned), warm clean %.3fs; trace bytes cold %d / warm %d (%d cache hits)@."
    shard_workers kill_time
    (match reassign_latency with Some s -> Printf.sprintf "%.3fs" s | None -> "n/a")
    kill_st.Omn_shard.Coord.reassigned warm_time kill_st.Omn_shard.Coord.trace_ship_bytes
    warm_st.Omn_shard.Coord.trace_ship_bytes warm_st.Omn_shard.Coord.trace_cache_hits;
  Format.fprintf fmt
    "  fleet telemetry: %.3fs on vs %.3fs off (overhead x%.3f), %d workers reporting, %d \
     timeline events pulled, bit-identical: true@."
    fleet_time warm_time fleet_overhead
    (List.length fleet_st.Omn_shard.Coord.fleet)
    fleet_events;
  if fleet_overhead > fleet_warn_ratio then
    Format.fprintf fmt
      "WARN: fleet telemetry overhead x%.3f exceeds the x%.2f warn threshold@." fleet_overhead
      fleet_warn_ratio;
  Format.fprintf fmt "  wrote %s@." path;
  if kill_st.Omn_shard.Coord.reassigned = 0 then begin
    Format.fprintf fmt "FAIL: the killed worker's work was never reassigned@.";
    exit 1
  end;
  if kill_st.Omn_shard.Coord.trace_ship_bytes = 0 then begin
    Format.fprintf fmt "FAIL: the cold-store run shipped no trace bytes@.";
    exit 1
  end;
  if warm_st.Omn_shard.Coord.trace_ship_bytes <> 0 then begin
    Format.fprintf fmt "FAIL: warm workers re-shipped %d trace bytes (digest cache miss)@."
      warm_st.Omn_shard.Coord.trace_ship_bytes;
    exit 1
  end;
  if warm_st.Omn_shard.Coord.trace_cache_hits < shard_workers then begin
    Format.fprintf fmt "FAIL: only %d of %d warm workers hit the digest cache@."
      warm_st.Omn_shard.Coord.trace_cache_hits shard_workers;
    exit 1
  end;
  if not est_covers then begin
    Format.fprintf fmt "FAIL: sampled CI does not cover the exact (1-eps)-diameter@.";
    exit 1
  end;
  if not identical then begin
    Format.fprintf fmt "FAIL: parallel curves differ from the sequential curves@.";
    exit 1
  end;
  if not obs_identical then begin
    Format.fprintf fmt "FAIL: enabling metrics changed the computed curves@.";
    exit 1
  end;
  if obs_domains > 1 && pool_tasks_run = 0 then begin
    (* The instrumented rerun ran on a real pool; zero means the
       measured path bypassed it and the bench is lying about what it
       observes. *)
    Format.fprintf fmt "FAIL: pool.tasks_run is 0 on a %d-domain instrumented run@." obs_domains;
    exit 1
  end;
  if not sup_identical then begin
    Format.fprintf fmt "FAIL: fault-free supervision changed the computed curves@.";
    exit 1
  end;
  if not tl_identical then begin
    Format.fprintf fmt "FAIL: enabling the timeline changed the computed curves@.";
    exit 1
  end;
  if tl_overhead > 1.02 then
    (* Advisory, like the other overhead targets: evidence in the JSON. *)
    Format.fprintf fmt "WARN: timeline overhead x%.3f exceeds the 1.02 target@." tl_overhead
  else Format.fprintf fmt "  timeline overhead within 2%% target@.";
  if sup_overhead > 1.03 then
    (* Advisory, like the metrics-overhead target: the evidence stays in
       the JSON either way. *)
    Format.fprintf fmt "WARN: supervision overhead x%.3f exceeds the 1.03 target@." sup_overhead
  else Format.fprintf fmt "  supervision overhead within 3%% target@.";
  if obs_overhead > 1.05 then
    (* Advisory rather than fatal: best-of-N tames most noise, but a
       loaded CI host can still blow a 5% margin without a real
       regression. The snapshot in the JSON keeps the evidence. *)
    Format.fprintf fmt "WARN: metrics overhead x%.3f exceeds the 1.05 target@." obs_overhead
  else Format.fprintf fmt "  metrics overhead within 5%% target@.";
  (* The measured ratio prints on every path — pass, fail and skip — so
     a green CI log still shows the number the gate judged. *)
  Format.fprintf fmt "  prune ratio (pruned/kept): %.2f (%d pruned / %d kept) [%s: %s]@."
    prune_ratio pruned kept prune_status prune_reason;
  Format.fprintf fmt "  speedup gate [%s]: 2-domain speedup %.2fx vs required %.2fx — %s@."
    speedup_status speedup2 min_speedup speedup_reason;
  let failed = ref false in
  if speedup_status = "failed" then begin
    Format.fprintf fmt "FAIL: 2-domain speedup %.2fx below the required %.2fx@." speedup2
      min_speedup;
    failed := true
  end;
  if prune_status = "failed" then begin
    Format.fprintf fmt "FAIL: prune ratio %.2f exceeds the recorded baseline %.2f@." prune_ratio
      (Option.get max_prune_ratio);
    failed := true
  end;
  if !failed then exit 1

let usage () =
  Format.fprintf fmt
    "usage: main.exe [--list] [--quick] [--timing] [--enforce-speedup] [--min-speedup R] \
     [--max-prune-ratio R] [--only NAME[,NAME...]] [--metrics FILE] [--progress]@.";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let timing = List.mem "--timing" args in
  let enforce_speedup = List.mem "--enforce-speedup" args in
  let progress = List.mem "--progress" args in
  let metrics =
    let rec find = function
      | "--metrics" :: v :: _ -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let float_flag name =
    let rec find = function
      | flag :: v :: _ when flag = name -> (
        match float_of_string_opt v with
        | Some r when r > 0. -> Some r
        | _ ->
          Format.fprintf fmt "%s needs a positive number, got %S@." name v;
          exit 2)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let min_speedup = Option.value ~default:1.7 (float_flag "--min-speedup") in
  let max_prune_ratio = float_flag "--max-prune-ratio" in
  (* Strip "--metrics FILE" (and the other value-taking flags) before
     the flag sweeps below: the values are not flags. *)
  let flag_args =
    let rec strip = function
      | "--metrics" :: _ :: rest
      | "--min-speedup" :: _ :: rest
      | "--max-prune-ratio" :: _ :: rest ->
        strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let timing_only =
    timing
    && List.for_all
         (fun a -> a = "--timing" || a = "--quick" || a = "--enforce-speedup" || a = "--progress")
         flag_args
  in
  let listing = List.mem "--list" args in
  let only =
    let rec find = function
      | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let known_flag a =
    List.mem a
      [
        "--quick"; "--timing"; "--list"; "--only"; "--enforce-speedup"; "--progress";
        "--min-speedup"; "--max-prune-ratio";
      ]
  in
  List.iter
    (fun a ->
      if String.length a >= 2 && String.sub a 0 2 = "--" && not (known_flag a) then usage ())
    flag_args;
  if metrics <> None then Omn_obs.Metrics.set_enabled true;
  if listing then begin
    Format.fprintf fmt "experiments:@.";
    List.iter
      (fun (e : Omn_experiments.Registry.experiment) ->
        Format.fprintf fmt "  %-8s %s@." e.name e.description)
      Omn_experiments.Registry.all;
    exit 0
  end;
  let selected =
    if timing_only then []
    else begin
      match only with
      | None -> Omn_experiments.Registry.all
      | Some names ->
        List.map
          (fun name ->
            match Omn_experiments.Registry.find name with
            | Some e -> e
            | None ->
              Format.fprintf fmt "unknown experiment %S (try --list)@." name;
              exit 2)
          names
    end
  in
  Format.fprintf fmt
    "The Diameter of Opportunistic Mobile Networks (CoNEXT 2007) — reproduction%s@."
    (if quick then " [quick]" else "");
  let t0 = Unix.gettimeofday () in
  let bar =
    if progress && selected <> [] then
      Some (Omn_obs.Progress.create ~total:(List.length selected) ~label:"experiments" ())
    else None
  in
  List.iter
    (fun (e : Omn_experiments.Registry.experiment) ->
      let t = Unix.gettimeofday () in
      e.run ~quick fmt;
      Format.fprintf fmt "@[[%s: %.1fs]@]@." e.name (Unix.gettimeofday () -. t);
      Option.iter (fun b -> Omn_obs.Progress.step b) bar)
    selected;
  Option.iter Omn_obs.Progress.finish bar;
  if timing then begin
    bench_parallel ~quick ~enforce:enforce_speedup ~min_speedup ~max_prune_ratio ();
    run_timing ()
  end;
  (match metrics with
  | Some path ->
    Omn_obs.Sink.emit (Omn_obs.Sink.file path);
    Format.fprintf fmt "wrote %s@." path
  | None -> ());
  Format.fprintf fmt "@.total: %.1fs@." (Unix.gettimeofday () -. t0)
