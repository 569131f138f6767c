(* Chaos harness for the resilience layer: retrying I/O (Retry_io),
   CRC-framed rotated checkpoints (Checkpoint), the checkpoint faults
   of Faultgen, and the end-to-end guarantees on the delay-CDF pipeline
   — a run whose executor reports a failed source fails with one typed
   error naming it, and a run through kills, resumes and checkpoint
   faults is bit-identical to a fault-free one. *)

module RI = Omn_robust.Retry_io
module Checkpoint = Omn_robust.Checkpoint
module Faultgen = Omn_robust.Faultgen
module Atomic_file = Omn_robust.Atomic_file
module Err = Omn_robust.Err
module Metrics = Omn_obs.Metrics
module Pool = Omn_parallel.Pool
module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Delay_cdf = Omn_core.Delay_cdf
module Diameter = Omn_core.Diameter
module Driver = Omn_core.Driver
module Rng = Omn_stats.Rng

let get_ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let no_sleep (_ : float) = ()

let with_ckpt f =
  let path = Filename.temp_file "omn_chaos" ".ckpt" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> Checkpoint.remove path) (fun () -> f path)

let flip_file ?(seed = 1) path =
  let data = Atomic_file.read_to_string path in
  Atomic_file.write_string path (Faultgen.apply ~seed Faultgen.Ckpt_flip data)

(* --- Retry_io --- *)

let transient_classification () =
  Alcotest.(check bool) "EINTR" true (RI.transient (Unix.Unix_error (Unix.EINTR, "read", "")));
  Alcotest.(check bool) "EAGAIN" true (RI.transient (Unix.Unix_error (Unix.EAGAIN, "read", "")));
  Alcotest.(check bool) "Sys_error EINTR text" true
    (RI.transient (Sys_error "f: Interrupted system call"));
  Alcotest.(check bool) "Injected" true (RI.transient (RI.Injected "x"));
  Alcotest.(check bool) "ENOENT is fatal" false
    (RI.transient (Unix.Unix_error (Unix.ENOENT, "open", "")));
  Alcotest.(check bool) "Failure is fatal" false (RI.transient (Failure "x"))

let retry_io_injected_faults () =
  Fun.protect ~finally:(fun () -> RI.set_inject None) @@ fun () ->
  let path = Filename.temp_file "omn_retry" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  RI.write_string path "payload";
  let fails = Atomic.make 2 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "read" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")));
  Alcotest.(check string) "read recovers through retries" "payload"
    (RI.read_to_string ~attempts:3 path);
  (* attempts exhausted: the fault surfaces *)
  Atomic.set fails 100;
  (match RI.read_to_string ~attempts:2 path with
  | exception RI.Injected _ -> ()
  | _ -> Alcotest.fail "exhausted retries must surface the fault");
  RI.set_inject None;
  (* writes are retried too, and the retries leave a consistent file *)
  let fails = Atomic.make 1 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "write" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")));
  RI.write_string ~attempts:2 path "second";
  Alcotest.(check string) "retried write landed" "second" (RI.read_to_string path);
  RI.set_inject None;
  (* a trace load reads through the same wrapper: two faults are retried
     away, and faults that outlast the 3 default attempts come back as a
     typed Io error naming the file, never as an exception *)
  let trace = Util.random_trace ~scale:0.37 (Rng.create 23) ~n:12 ~m:60 ~horizon:100 in
  Trace_io.save trace path;
  let fails = Atomic.make 2 in
  RI.set_inject
    (Some
       (fun ~op ~path:p ->
         if op = "read" && p = path && Atomic.fetch_and_add fails (-1) > 0 then
           raise (RI.Injected "io")));
  (match Trace_io.load_result path with
  | Ok (t, _) ->
    Alcotest.(check string) "trace loads through two faults, unchanged" (Trace_io.to_string trace)
      (Trace_io.to_string t)
  | Error e -> Alcotest.failf "retried trace load failed: %s" (Err.to_string e));
  Atomic.set fails 3;
  (match Trace_io.load_result path with
  | Error { Err.code = Err.Io; file; _ } ->
    Alcotest.(check (option string)) "exhausted load names the file" (Some path) file
  | Error e -> Alcotest.failf "exhausted load: wrong error %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "faults past the 3 attempts still loaded"
  | exception e -> Alcotest.failf "exhausted load raised %s" (Printexc.to_string e));
  RI.set_inject None;
  (* non-transient exceptions are not retried *)
  let calls = ref 0 in
  match
    RI.with_retries ~attempts:5 ~sleep:no_sleep ~op:"op" ~path:"p" (fun () ->
        incr calls;
        failwith "fatal")
  with
  | exception Failure _ -> Alcotest.(check int) "fatal error tried once" 1 !calls
  | _ -> Alcotest.fail "must raise"

(* --- Checkpoint --- *)

let magic = "omn-test 1\n"

let checkpoint_roundtrip_and_corruption () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "payload-1";
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Ok (p, Checkpoint.Current) -> Alcotest.(check string) "roundtrip" "payload-1" p
  | _ -> Alcotest.fail "fresh checkpoint must load as Current");
  let good = Atomic_file.read_to_string path in
  List.iter
    (fun fault ->
      let bad = Faultgen.apply ~seed:1 fault good in
      Alcotest.(check bool) (Faultgen.name fault ^ " changes bytes") true (bad <> good);
      match Checkpoint.decode ~magic ~path bad with
      | Error (e : Err.t) ->
        Alcotest.(check bool) "typed Checkpoint error" true (e.Err.code = Err.Checkpoint)
      | Ok _ -> Alcotest.failf "%s not caught by the CRC" (Faultgen.name fault))
    [ Faultgen.Ckpt_flip; Faultgen.Ckpt_truncate 0.4 ];
  (* wrong magic (format version bump) is rejected before the CRC *)
  match Checkpoint.decode ~magic:"omn-test 2\n" ~path good with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "old-format magic accepted"

let checkpoint_stale_passes_crc () =
  (* ckpt-stale simulates a checkpoint from other parameters: the
     embedded fingerprint changes but the CRC is re-sealed, so only
     caller-level validation can catch it. *)
  with_ckpt @@ fun path ->
  let fp_payload = "fp 0123456789abcdef0123456789abcdef tail" in
  Checkpoint.save ~magic ~path fp_payload;
  let stale = Faultgen.apply ~seed:1 Faultgen.Ckpt_stale (Atomic_file.read_to_string path) in
  match Checkpoint.decode ~magic ~path stale with
  | Ok p ->
    Alcotest.(check bool) "payload differs" true (p <> fp_payload);
    Alcotest.(check int) "same length" (String.length fp_payload) (String.length p)
  | Error e -> Alcotest.failf "stale fault must keep the CRC valid: %s" (Err.to_string e)

let checkpoint_rotation_fallback () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "gen-1";
  Alcotest.(check bool) "no prev after first save" false
    (Sys.file_exists (Checkpoint.prev_path path));
  Checkpoint.save ~magic ~path "gen-2";
  Alcotest.(check bool) "prev after second save" true
    (Sys.file_exists (Checkpoint.prev_path path));
  (* corrupt current -> load falls back to the previous generation *)
  flip_file path;
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Ok (p, Checkpoint.Previous) -> Alcotest.(check string) "previous payload" "gen-1" p
  | Ok (_, Checkpoint.Current) -> Alcotest.fail "corrupt current accepted"
  | Error e -> Alcotest.failf "no fallback: %s" (Err.to_string e));
  (* saving over a corrupt current must not promote it over the good prev *)
  Checkpoint.save ~magic ~path "gen-3";
  (match Checkpoint.load ~magic ~validate:Result.ok (Checkpoint.prev_path path) with
  | Ok (p, Checkpoint.Current) -> Alcotest.(check string) "prev survived rotation" "gen-1" p
  | _ -> Alcotest.fail "corrupt current was promoted to prev");
  (* both generations corrupt -> the current generation's error wins *)
  flip_file ~seed:2 path;
  flip_file ~seed:3 (Checkpoint.prev_path path);
  (match Checkpoint.load ~magic ~validate:Result.ok path with
  | Error (e : Err.t) ->
    Alcotest.(check bool) "typed" true (e.Err.code = Err.Checkpoint);
    Alcotest.(check (option string)) "cites the current file" (Some path) e.Err.file
  | Ok _ -> Alcotest.fail "double corruption accepted");
  Checkpoint.remove path;
  Alcotest.(check bool) "remove clears both generations" false
    (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path))

let checkpoint_validate_rejection_falls_back () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~magic ~path "good";
  Checkpoint.save ~magic ~path "bad";
  let validate p = if p = "bad" then Error (Err.v Err.Checkpoint "stale") else Ok p in
  match Checkpoint.load ~magic ~validate path with
  | Ok (p, Checkpoint.Previous) -> Alcotest.(check string) "fell back" "good" p
  | _ -> Alcotest.fail "validate rejection must fall back to prev"

let faultgen_ckpt_faults () =
  let payload = "row 00112233445566778899aabbccddeeff data" in
  let data = magic ^ payload ^ Checkpoint.crc32_hex payload in
  List.iter
    (fun fault ->
      Alcotest.(check string)
        (Faultgen.name fault ^ " deterministic")
        (Faultgen.apply ~seed:7 fault data)
        (Faultgen.apply ~seed:7 fault data))
    [ Faultgen.Ckpt_truncate 0.3; Faultgen.Ckpt_flip; Faultgen.Ckpt_stale ];
  let truncated = Faultgen.apply ~seed:7 (Faultgen.Ckpt_truncate 0.3) data in
  Alcotest.(check bool) "truncate shortens" true (String.length truncated < String.length data);
  let flipped = Faultgen.apply ~seed:7 Faultgen.Ckpt_flip data in
  Alcotest.(check int) "flip keeps length" (String.length data) (String.length flipped);
  let diffs =
    List.length
      (List.filter Fun.id (List.init (String.length data) (fun i -> data.[i] <> flipped.[i])))
  in
  Alcotest.(check int) "flip changes exactly one byte" 1 diffs;
  Alcotest.(check bool) "flip spares the magic line" true
    (String.sub flipped 0 (String.length magic) = magic);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered with the CLI enum") true
        (List.mem n Faultgen.all_names))
    [ "ckpt-truncate"; "ckpt-flip"; "ckpt-stale" ]

(* --- the pipeline under chaos --- *)

(* Fractional times: merge orders give different floats here, so the
   identity checks below pin the driver's ascending-position fold. *)
let chaos_trace = Util.random_trace ~scale:0.37 (Rng.create 42) ~n:12 ~m:80 ~horizon:200
let grid = [| 1.; 5.; 20.; 50.; 100.; 200. |]
let chaos_plan = get_ok (Delay_cdf.plan ~max_hops:3 ~grid chaos_trace)

let curves_equal (a : Delay_cdf.curves) (b : Delay_cdf.curves) =
  a.grid = b.grid && a.hop_success = b.hop_success && a.hop_success_inf = b.hop_success_inf
  && a.flood_success = b.flood_success && a.flood_success_inf = b.flood_success_inf
  && a.max_rounds_used = b.max_rounds_used

(* An executor that reports one source as failed: the run fails with
   exactly the one typed error that names it, whether the plan runs as
   one batch or in batches, and no batch after the failed one is asked
   for. Source 4 is the 5th of the 12 in processing order (0, 7, 2, 9,
   4, 11, 6, 1, 8, 3, 10, 5), so in batches of 3 it falls in the second
   of four and in batches of 2 in the third of six. *)
let failed_source_aborts () =
  let reason = {|Failure("injected")|} in
  let victim = 4 in
  List.iter
    (fun (checkpoint_every, batches_expected) ->
      let batches = ref 0 in
      let partials_of sources =
        incr batches;
        List.map
          (fun s ->
            if s = victim then Error { Delay_cdf.source = s; reason }
            else Ok (Delay_cdf.partial_of chaos_plan s))
          sources
      in
      let report _ _ = () in
      match Driver.run ~partials_of ~checkpoint_every ~report chaos_plan with
      | Error (e : Err.t) ->
        Alcotest.(check bool) "typed failure" true (e.Err.code = Err.Compute);
        Alcotest.(check string) "names the failed source and its reason"
          (Printf.sprintf "source task failed: source %d: %s" victim reason)
          e.msg;
        Alcotest.(check int) "no batch after the failed one" batches_expected !batches
      | Ok _ -> Alcotest.fail "a failed source must abort the run")
    [ (12, 1); (3, 2); (2, 3) ]

(* Two zero-budget runs leave two checkpoint generations; the current
   one is then corrupted, and the resume falls back to [.prev].
   [before_resume] runs just before the resume. *)
let resume_through_fallback ?(before_resume = ignore) path =
  let step ?budget_seconds ~resume () =
    get_ok (Driver.run ~checkpoint_every:3 ~checkpoint:path ~resume ?budget_seconds chaos_plan)
  in
  ignore (step ~budget_seconds:0. ~resume:false ());
  ignore (step ~budget_seconds:0. ~resume:true ());
  flip_file path;
  before_resume ();
  step ~resume:true ()

let ckpt_fallback_recovers () =
  with_ckpt @@ fun path ->
  let o = resume_through_fallback path in
  Alcotest.(check bool) "fallback reported" true o.Driver.progress.Delay_cdf.ckpt_fallback;
  Alcotest.(check bool) "run completed" false o.Driver.progress.Delay_cdf.partial;
  let clean = get_ok (Driver.run chaos_plan) in
  Alcotest.(check bool) "clean run reports no fallback" false
    clean.Driver.progress.Delay_cdf.ckpt_fallback;
  Alcotest.(check bool) "post-fallback curves bit-identical" true
    (curves_equal o.Driver.curves (Delay_cdf.compute ~max_hops:3 ~grid chaos_trace));
  Alcotest.(check bool) "both generations removed on completion" false
    (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path))

(* The diameter read off a run that resumed through a checkpoint
   fallback, and off a clean run, is [Diameter.measure]'s. *)
let diameter_threads_resilience () =
  let measured = (Diameter.measure ~max_hops:3 ~grid chaos_trace).Diameter.diameter in
  with_ckpt @@ fun path ->
  let o = resume_through_fallback path in
  Alcotest.(check bool) "the resume fell back" true o.Driver.progress.Delay_cdf.ckpt_fallback;
  Alcotest.(check (option int)) "post-fallback diameter is measure's" measured
    (Diameter.of_curves o.Driver.curves);
  let clean = get_ok (Driver.run chaos_plan) in
  Alcotest.(check bool) "no fallback on a clean run" false
    clean.Driver.progress.Delay_cdf.ckpt_fallback;
  Alcotest.(check (option int)) "clean diameter is measure's" measured
    (Diameter.of_curves clean.Driver.curves)

let inject_one_read_fault () =
  let fails = Atomic.make 1 in
  RI.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "read" && Atomic.fetch_and_add fails (-1) > 0 then raise (RI.Injected "io")))

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      RI.set_inject None;
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  Metrics.reset ();
  f ()

let metrics_flow () =
  with_metrics @@ fun () ->
  let total name =
    Option.value ~default:0 (Metrics.counter_total (Metrics.snapshot ()) name)
  in
  (* a checkpoint fallback is counted once *)
  with_ckpt (fun path -> ignore (resume_through_fallback path));
  Alcotest.(check int) "fallback counted once" 1 (total "delay_cdf.ckpt_fallbacks");
  (* injected I/O retries flow into resilience.io_retries *)
  let path = Filename.temp_file "omn_metrics" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  RI.write_string path "x";
  inject_one_read_fault ();
  ignore (RI.read_to_string path);
  RI.set_inject None;
  Alcotest.(check bool) "io retries counted" true (total "resilience.io_retries" >= 1)

(* [omn report] reads the resilience counters by the names the library
   registers: a report built from the metrics snapshot alone of a run
   that retried a read and fell back to [.prev] must show both. *)
let report_reads_resilience_counters () =
  with_metrics @@ fun () ->
  with_ckpt @@ fun path ->
  let o = resume_through_fallback ~before_resume:inject_one_read_fault path in
  RI.set_inject None;
  Alcotest.(check bool) "run fell back to .prev" true o.Driver.progress.Delay_cdf.ckpt_fallback;
  let snap = Metrics.snapshot () in
  let report = Omn_obs.Report.build ~metrics:(Metrics.snapshot_to_json snap) () in
  List.iter
    (fun (field, counter) ->
      let registered = Option.value ~default:0 (Metrics.counter_total snap counter) in
      let reported =
        Option.bind (Omn_obs.Json.member "resilience" report) (Omn_obs.Json.member field)
        |> Fun.flip Option.bind Omn_obs.Json.to_int
      in
      Alcotest.(check bool) (counter ^ " counted") true (registered > 0);
      Alcotest.(check (option int)) ("resilience." ^ field ^ " reads " ^ counter)
        (Some registered) reported)
    [
      ("checkpoint_fallbacks", "delay_cdf.ckpt_fallbacks");
      ("io_retries", "resilience.io_retries");
    ]

(* Random fault schedules (property): a run that is repeatedly killed
   (budget-expired), resumed, and occasionally hit by checkpoint
   corruption never loses acknowledged progress beyond one generation,
   never double-counts a source, and always converges to the exact
   fault-free result. *)
let prop_random_fault_schedules =
  QCheck2.Test.make ~count:25 ~name:"kill/corrupt schedules: no lost progress, no double count"
    QCheck2.Gen.(pair small_nat (list_size (int_range 0 10) (int_range 0 2)))
    (fun (tseed, events) ->
      let trace =
        Util.random_trace ~scale:0.37 (Rng.create (1 + tseed)) ~n:10 ~m:60 ~horizon:120
      in
      let grid = [| 1.; 5.; 20.; 60.; 120. |] in
      let chunk = 3 in
      let reference = Delay_cdf.compute ~max_hops:3 ~grid trace in
      let plan = get_ok (Delay_cdf.plan ~max_hops:3 ~grid trace) in
      let path = Filename.temp_file "omn_prop" ".ckpt" in
      Sys.remove path;
      Fun.protect ~finally:(fun () -> Checkpoint.remove path) @@ fun () ->
      let step () =
        match
          Driver.run ~checkpoint_every:chunk ~checkpoint:path ~resume:true ~budget_seconds:0.
            plan
        with
        | Ok o -> (o.Driver.curves, o.Driver.progress)
        | Error e -> QCheck2.Test.fail_reportf "step failed: %s" (Err.to_string e)
      in
      let last_done = ref 0 in
      let rec drive events guard =
        if guard > 50 then QCheck2.Test.fail_report "schedule did not converge";
        let curves, p = step () in
        let d = p.Delay_cdf.sources_done in
        if d > p.Delay_cdf.sources_total then
          QCheck2.Test.fail_reportf "double-counted: %d of %d" d p.Delay_cdf.sources_total;
        (* a fallback re-does at most one chunk of acknowledged work *)
        if d < !last_done - chunk then
          QCheck2.Test.fail_reportf "lost progress: %d after %d" d !last_done;
        last_done := d;
        if not p.Delay_cdf.partial then begin
          if d <> p.Delay_cdf.sources_total then
            QCheck2.Test.fail_report "completed without covering every source";
          curves
        end
        else begin
          (match events with
          | 1 :: _ when Sys.file_exists (Checkpoint.prev_path path) ->
            (* corrupt the current generation; resume must fall back *)
            flip_file ~seed:tseed path
          | 2 :: _ when Sys.file_exists (Checkpoint.prev_path path) ->
            (* corrupt the previous generation; current must still load *)
            flip_file ~seed:tseed (Checkpoint.prev_path path)
          | _ -> (* clean kill/restart *) ());
          drive (match events with [] -> [] | _ :: rest -> rest) (guard + 1)
        end
      in
      let final = drive events 0 in
      curves_equal final reference)

let suite =
  [
    Alcotest.test_case "transient error classification" `Quick transient_classification;
    Alcotest.test_case "retry_io recovers from injected faults" `Quick retry_io_injected_faults;
    Alcotest.test_case "checkpoint CRC catches flip/truncate" `Quick
      checkpoint_roundtrip_and_corruption;
    Alcotest.test_case "stale fault passes CRC (fingerprint's job)" `Quick
      checkpoint_stale_passes_crc;
    Alcotest.test_case "rotation falls back, never promotes corrupt" `Quick
      checkpoint_rotation_fallback;
    Alcotest.test_case "validate rejection falls back" `Quick
      checkpoint_validate_rejection_falls_back;
    Alcotest.test_case "faultgen checkpoint faults" `Quick faultgen_ckpt_faults;
    Alcotest.test_case "a failed source aborts the run" `Quick failed_source_aborts;
    Alcotest.test_case "corrupt checkpoint falls back to .prev" `Quick ckpt_fallback_recovers;
    Alcotest.test_case "diameter threads resilience through" `Quick diameter_threads_resilience;
    Alcotest.test_case "retry/fault/fallback counts reach metrics" `Quick metrics_flow;
    Alcotest.test_case "report reads the registered resilience counters" `Quick
      report_reads_resilience_counters;
    QCheck_alcotest.to_alcotest prop_random_fault_schedules;
  ]
