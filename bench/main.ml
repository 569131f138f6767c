(* Reproduction harness: regenerates every table and figure of
   "The Diameter of Opportunistic Mobile Networks" (CoNEXT 2007).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig9  # one experiment
     dune exec bench/main.exe -- --quick      # small workloads (smoke)
     dune exec bench/main.exe -- --timing     # Bechamel micro/meso benches
     dune exec bench/main.exe -- --list       # experiment index *)

let fmt = Format.std_formatter

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
   reruns it with the metrics registry live, and emits a
   machine-readable report (with the span tree and key observability
   counters folded in) that CI archives. Correctness of the library is
   the test suite's job; the bench guards only the runs it times: the
   curves must be bit-identical across domain counts and with metrics
   on, and the instrumented run must have gone through the pool. With
   [enforce] set, the 2-domain run must be at least [min_speedup] times
   faster than the 1-domain run or the process fails — except on hosts
   where the runtime recommends < 2 domains (a 1-core container cannot
   exhibit a speedup); the skip is stamped visibly into the JSON as
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
  Format.fprintf fmt "  wrote %s@." path;
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
    Omn_robust.Retry_io.write_string path
      (Omn_obs.Json.to_string ~pretty:true
         (Omn_obs.Metrics.snapshot_to_json (Omn_obs.Metrics.snapshot ()))
      ^ "\n");
    Format.fprintf fmt "wrote %s@." path
  | None -> ());
  Format.fprintf fmt "@.total: %.1fs@." (Unix.gettimeofday () -. t0)
