(* Timeline ring-buffer semantics (overflow, concurrency, disabled
   no-op), the Chrome trace exporter, provenance manifests, SHA-256,
   the report analyzer — and the contract that tracing never perturbs
   computed results. *)

module Timeline = Omn_obs.Timeline
module Trace_export = Omn_obs.Trace_export
module Manifest = Omn_obs.Manifest
module Report = Omn_obs.Report
module Sha256 = Omn_obs.Sha256
module Json = Omn_obs.Json
module Metrics = Omn_obs.Metrics
module Rng = Omn_stats.Rng

let fresh ?capacity () =
  let tl = Timeline.create ?capacity () in
  Timeline.set_enabled ~tl true;
  tl

let mark tl i = Timeline.record ~tl ~ts:(float_of_int i) (Timeline.Mark { name = Printf.sprintf "m%d" i })

let name_of (e : Timeline.entry) =
  match e.ev with Timeline.Mark { name } -> name | _ -> Alcotest.fail "expected a Mark"

(* -- ring semantics ------------------------------------------------------- *)

let test_overflow_exact () =
  let tl = fresh ~capacity:8 () in
  for i = 0 to 19 do
    mark tl i
  done;
  let v = Timeline.snapshot ~tl () in
  Alcotest.(check int) "kept = capacity" 8 (List.length v.events);
  Alcotest.(check int) "dropped exact" 12 (Timeline.total_dropped v);
  (* drop-oldest: the survivors are the last 8 records, in order *)
  Alcotest.(check (list string)) "newest survive, ordered"
    (List.init 8 (fun i -> Printf.sprintf "m%d" (12 + i)))
    (List.map (fun (_, e) -> name_of e) v.events);
  Timeline.reset ~tl ();
  let v = Timeline.snapshot ~tl () in
  Alcotest.(check int) "reset empties" 0 (List.length v.events);
  Alcotest.(check int) "reset zeroes dropped" 0 (Timeline.total_dropped v)

let test_disabled_noop () =
  let tl = Timeline.create ~capacity:4 () in
  Alcotest.(check bool) "starts disabled" false (Timeline.enabled ~tl ());
  for i = 0 to 9 do
    mark tl i
  done;
  let v = Timeline.snapshot ~tl () in
  Alcotest.(check int) "nothing recorded" 0 (List.length v.events);
  Alcotest.(check int) "nothing dropped" 0 (Timeline.total_dropped v)

(* Four domains hammer one timeline past overflow. Rings are per-domain,
   so each domain's slice must contain only its own marks, in order,
   with an exact dropped count — any cross-domain mixing or a torn entry
   would break the name/index pattern. *)
let test_concurrent_no_tearing () =
  let tl = fresh ~capacity:64 () in
  let per_domain = 200 in
  let writer tag () =
    for j = 0 to per_domain - 1 do
      Timeline.record ~tl ~ts:(float_of_int j)
        (Timeline.Mark { name = Printf.sprintf "d%d-%d" tag j })
    done
  in
  let others = Array.init 3 (fun i -> Domain.spawn (writer (i + 1))) in
  writer 0 ();
  Array.iter Domain.join others;
  let v = Timeline.snapshot ~tl () in
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (d, e) ->
      Hashtbl.replace by_domain d (name_of e :: Option.value ~default:[] (Hashtbl.find_opt by_domain d)))
    v.events;
  Alcotest.(check int) "four rings" 4 (Hashtbl.length by_domain);
  Hashtbl.iter
    (fun _ names_rev ->
      let names = List.rev names_rev in
      Alcotest.(check int) "ring full" 64 (List.length names);
      (* all marks in one ring carry the same writer tag... *)
      let tag = List.hd (String.split_on_char '-' (List.hd names)) in
      (* ...and their indices are exactly the last [capacity] writes *)
      Alcotest.(check (list string)) "own marks only, newest, ordered"
        (List.init 64 (fun i -> Printf.sprintf "%s-%d" tag (per_domain - 64 + i)))
        names)
    by_domain;
  Alcotest.(check int) "dropped exact across domains"
    (4 * (per_domain - 64))
    (Timeline.total_dropped v);
  List.iter
    (fun (_, n) -> Alcotest.(check int) "dropped exact per domain" (per_domain - 64) n)
    v.dropped

(* -- Chrome trace export -------------------------------------------------- *)

let events_named name trace_json =
  match Option.bind (Json.member "traceEvents" trace_json) Json.to_list with
  | None -> Alcotest.fail "no traceEvents"
  | Some evs ->
    List.filter
      (fun e -> Option.bind (Json.member "name" e) Json.to_str = Some name)
      evs

let test_export_roundtrip () =
  let tl = fresh () in
  Timeline.record ~tl ~ts:2.0 (Timeline.Chunk { index = 0; items = 8; start = 1.0 });
  Timeline.record ~tl ~ts:1.8 (Timeline.Pool_work { start = 1.2; stolen = true });
  Timeline.record ~tl ~ts:1.5 Timeline.Steal;
  Timeline.record ~tl ~ts:1.6 (Timeline.Queue_wait { seconds = 0.1 });
  Timeline.record ~tl ~ts:3.0 (Timeline.Ckpt_write { path = "x.ckpt"; seconds = 0.5 });
  Timeline.record ~tl ~ts:3.1 (Timeline.Ckpt_rotate { path = "x.ckpt" });
  Timeline.record ~tl ~ts:3.4 (Timeline.Io_retry { op = "read" });
  Timeline.record ~tl ~ts:3.5 (Timeline.Gc_sample { minor = 1; major = 2; heap_words = 1000 });
  let manifest = Manifest.to_json (Manifest.create ~cmdline:[ "omn"; "test" ] ~version:"test" ()) in
  let json = Trace_export.to_json ~manifest (Timeline.snapshot ~tl ()) in
  (* what --trace-out writes is what any JSON consumer can read back *)
  let json =
    match Json.of_string (Json.to_string ~pretty:true json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "exported trace does not reparse: %s" e
  in
  (match events_named "chunk" json with
  | [ chunk ] ->
    Alcotest.(check (option string)) "duration event" (Some "X")
      (Option.bind (Json.member "ph" chunk) Json.to_str);
    (* t0 is the earliest start (the chunk's own start, 1.0) *)
    Alcotest.(check (option (float 1e-6))) "anchored at t0" (Some 0.)
      (Option.bind (Json.member "ts" chunk) Json.to_float);
    Alcotest.(check (option (float 1e-3))) "1s duration in us" (Some 1e6)
      (Option.bind (Json.member "dur" chunk) Json.to_float)
  | l -> Alcotest.failf "expected 1 chunk event, got %d" (List.length l));
  (match events_named "pool.work" json with
  | [ w ] ->
    Alcotest.(check (option bool)) "stolen arg" (Some true)
      (Option.bind (Json.member "args" w) (fun a -> Option.bind (Json.member "stolen" a) Json.to_bool))
  | l -> Alcotest.failf "expected 1 pool.work event, got %d" (List.length l));
  (match events_named "gc" json with
  | [ g ] ->
    Alcotest.(check (option string)) "counter event" (Some "C")
      (Option.bind (Json.member "ph" g) Json.to_str)
  | l -> Alcotest.failf "expected 1 gc event, got %d" (List.length l));
  List.iter
    (fun name ->
      match events_named name json with
      | [ _ ] -> ()
      | l -> Alcotest.failf "expected 1 %s event, got %d" name (List.length l))
    [ "steal"; "queue.wait"; "checkpoint.write"; "checkpoint.rotate"; "io.retry" ];
  Alcotest.(check bool) "a thread_name track exists" true (events_named "thread_name" json <> []);
  let omn = Option.get (Json.member "omn" json) in
  Alcotest.(check (option string)) "schema" (Some Trace_export.schema)
    (Option.bind (Json.member "schema" omn) Json.to_str);
  Alcotest.(check (option int)) "no drops" (Some 0)
    (Option.bind (Json.member "dropped_events" omn) Json.to_int);
  match Option.bind (Json.member "manifest" omn) (fun m -> Result.to_option (Manifest.of_json m)) with
  | Some m -> Alcotest.(check (list string)) "manifest rides along" [ "omn"; "test" ] m.cmdline
  | None -> Alcotest.fail "manifest missing or unreadable in omn block"

(* -- fleet merge ----------------------------------------------------------- *)

let test_fleet_export () =
  let tl = fresh () in
  Timeline.record ~tl ~ts:10.0 (Timeline.Mark { name = "coord-mark" });
  let coordinator = Timeline.snapshot ~tl () in
  (* worker 0's clock runs 5 s ahead of the coordinator's: every shipped
     timestamp (including the embedded span start) must come back
     shifted onto the coordinator clock *)
  let worker =
    {
      Trace_export.fw_worker = 0;
      fw_events =
        [ (0, { Timeline.ts = 15.5; ev = Timeline.Shard_compute { source = 3; start = 15.0 } }) ];
      fw_dropped = [ (0, 2) ];
      fw_offset = 5.0;
      fw_rtt = 0.001;
    }
  in
  let json = Trace_export.fleet_to_json ~coordinator [ worker ] in
  let json =
    match Json.of_string (Json.to_string ~pretty:true json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "fleet trace does not reparse: %s" e
  in
  (match events_named "shard.compute" json with
  | [ c ] ->
    Alcotest.(check (option int)) "worker track is pid 2" (Some 2)
      (Option.bind (Json.member "pid" c) Json.to_int);
    (* corrected start 10.0 coincides with the coordinator mark -> t0,
       so the event lands at ts 0 with its 0.5 s duration intact *)
    Alcotest.(check (option (float 1e-3))) "offset-corrected onto t0" (Some 0.)
      (Option.bind (Json.member "ts" c) Json.to_float);
    Alcotest.(check (option (float 1e-3))) "duration preserved (us)" (Some 5e5)
      (Option.bind (Json.member "dur" c) Json.to_float)
  | l -> Alcotest.failf "expected 1 shard.compute event, got %d" (List.length l));
  (match events_named "coord-mark" json with
  | [ m ] ->
    Alcotest.(check (option int)) "coordinator track is pid 1" (Some 1)
      (Option.bind (Json.member "pid" m) Json.to_int)
  | l -> Alcotest.failf "expected 1 coordinator mark, got %d" (List.length l));
  let pname pid =
    List.find_map
      (fun e ->
        if Option.bind (Json.member "pid" e) Json.to_int = Some pid then
          Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member "name" a) Json.to_str)
        else None)
      (events_named "process_name" json)
  in
  Alcotest.(check (option string)) "pid 1 named" (Some "omn coordinator") (pname 1);
  Alcotest.(check (option string)) "pid 2 named" (Some "worker 0") (pname 2);
  let omn = Option.get (Json.member "omn" json) in
  Alcotest.(check (option int)) "fleet drops counted" (Some 2)
    (Option.bind (Json.member "dropped_events" omn) Json.to_int);
  match Option.bind (Json.member "fleet" omn) Json.to_list with
  | Some [ f ] ->
    let get k = Json.member k f in
    Alcotest.(check (option int)) "footer worker" (Some 0) (Option.bind (get "worker") Json.to_int);
    Alcotest.(check (option int)) "footer pid" (Some 2) (Option.bind (get "pid") Json.to_int);
    Alcotest.(check (option (float 1e-9))) "footer offset" (Some 5.0)
      (Option.bind (get "clock_offset_s") Json.to_float);
    Alcotest.(check (option (float 1e-9))) "footer rtt" (Some 0.001)
      (Option.bind (get "rtt_s") Json.to_float);
    Alcotest.(check (option int)) "footer events" (Some 1) (Option.bind (get "events") Json.to_int);
    Alcotest.(check (option int)) "footer dropped" (Some 2) (Option.bind (get "dropped") Json.to_int)
  | _ -> Alcotest.fail "omn.fleet footer missing or wrong arity"

let test_report_fleet () =
  let coordinator = Timeline.snapshot ~tl:(fresh ()) () in
  let mk_worker id busy =
    {
      Trace_export.fw_worker = id;
      fw_events =
        [ (0, { Timeline.ts = 10.0 +. busy; ev = Timeline.Shard_compute { source = id; start = 10.0 } }) ];
      fw_dropped = [];
      fw_offset = 0.;
      fw_rtt = 0.0005;
    }
  in
  let timeline = Trace_export.fleet_to_json ~coordinator [ mk_worker 0 2.0; mk_worker 1 0.5 ] in
  let report = Report.build ~timeline () in
  (match Json.member "fleet" report with
  | Some (Json.Obj _ as f) ->
    let worker w k = Option.bind (Json.member "workers" f) (fun ws -> Option.bind (Json.member w ws) (Json.member k)) in
    Alcotest.(check (option (float 1e-6))) "worker 0 busy from its track" (Some 2.0)
      (Option.bind (worker "0" "busy_s") Json.to_float);
    Alcotest.(check (option (float 1e-6))) "worker 1 busy from its track" (Some 0.5)
      (Option.bind (worker "1" "busy_s") Json.to_float);
    Alcotest.(check (option int)) "events counted" (Some 1)
      (Option.bind (worker "0" "events") Json.to_int);
    Alcotest.(check (option (float 1e-6))) "imbalance = max/mean" (Some 1.6)
      (Option.bind (Json.member "imbalance" f) Json.to_float)
  | _ -> Alcotest.fail "fleet section missing from report");
  let buf = Buffer.create 256 in
  Report.pp (Format.formatter_of_buffer buf) report;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "pp renders the fleet table" true
    (let n = String.length s in
     let rec go i = i + 5 <= n && (String.sub s i 5 = "fleet" || go (i + 1)) in
     go 0);
  (* a single-process trace has no fleet section *)
  let solo = Report.build ~timeline:(Trace_export.to_json coordinator) () in
  Alcotest.(check bool) "no fleet section without a fleet footer" true
    (Json.member "fleet" solo = Some Json.Null)

(* -- end-to-end: the instrumented driver ---------------------------------- *)

(* Run the real driver on 2 domains with metrics and timeline both
   live, batched by a reporter, and check the exported spans account
   for the measured pool busy time: both are computed from the same
   clock reads, so coverage must be essentially exact (>= 95% leaves
   room for float summation order only). *)
let test_e2e_coverage () =
  let trace = Util.random_trace (Rng.create 0x71) ~n:16 ~m:200 ~horizon:80 in
  let m_was = Metrics.enabled () and t_was = Timeline.enabled () in
  Metrics.reset ();
  Timeline.reset ();
  Metrics.set_enabled true;
  Timeline.set_enabled true;
  let outcome =
    Result.bind (Omn_core.Delay_cdf.plan ~max_hops:4 trace)
      (Omn_core.Driver.run ~domains:2 ~checkpoint_every:2 ~report:(fun _ _ -> ()))
  in
  Metrics.set_enabled m_was;
  Timeline.set_enabled t_was;
  let v = Timeline.snapshot () in
  let snap = Metrics.snapshot () in
  (match outcome with
  | Ok o -> Alcotest.(check bool) "run complete" false o.progress.partial
  | Error e -> Alcotest.failf "driver failed: %s" (Omn_robust.Err.to_string e));
  let work_domains =
    List.sort_uniq compare
      (List.filter_map
         (fun (d, (e : Timeline.entry)) ->
           match e.ev with Timeline.Pool_work _ -> Some d | _ -> None)
         v.events)
  in
  Alcotest.(check int) "one track per domain" 2 (List.length work_domains);
  let chunks =
    List.filter (fun (_, (e : Timeline.entry)) -> match e.ev with Timeline.Chunk _ -> true | _ -> false) v.events
  in
  Alcotest.(check bool) "chunk events present" true (List.length chunks >= 8);
  let span_total =
    List.fold_left
      (fun acc (_, (e : Timeline.entry)) ->
        match e.ev with Timeline.Pool_work { start; _ } -> acc +. (e.ts -. start) | _ -> acc)
      0. v.events
  in
  let busy = Option.value ~default:0. (Metrics.gauge_total snap "pool.busy_seconds") in
  Alcotest.(check bool) "busy time measured" true (busy > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "spans cover >= 95%% of busy time (spans %.6fs, busy %.6fs)" span_total busy)
    true
    (span_total >= 0.95 *. busy);
  Alcotest.(check int) "nothing dropped" 0 (Timeline.total_dropped v)

let test_bit_identity_timeline () =
  let trace = Util.random_trace ~scale:0.37 (Rng.create 0xB17) ~n:8 ~m:60 ~horizon:50 in
  let was = Timeline.enabled () in
  let compute () = Omn_core.Delay_cdf.compute ~max_hops:4 ~domains:2 trace in
  Timeline.set_enabled false;
  let off = compute () in
  Timeline.set_enabled true;
  let on_ = compute () in
  (* the batched driver, which records batch events, merges the same way *)
  let driven =
    Result.map
      (fun (o : Omn_core.Driver.outcome) -> o.curves)
      (Result.bind (Omn_core.Delay_cdf.plan ~max_hops:4 trace)
         (Omn_core.Driver.run ~domains:2 ~checkpoint_every:3 ~report:(fun _ _ -> ())))
  in
  Timeline.set_enabled was;
  Alcotest.(check bool) "delay-cdf curves identical with timeline on/off" true (off = on_);
  Alcotest.(check bool) "traced batched driver gives the same curves" true (driven = Ok off)

(* -- manifest ------------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let m =
    Manifest.finish
      (Manifest.create
         ~config:[ ("max_hops", Json.Int 6); ("budget", Json.Null) ]
         ~seed:7 ~trace_sha256:"ab12" ~trace_name:"t" ~n_nodes:3 ~n_contacts:9 ~domains:2
         ~cmdline:[ "omn"; "delay-cdf" ] ~version:"1.0.0-test" ())
  in
  Alcotest.(check bool) "finished stamped" true (m.finished <> None);
  Alcotest.(check bool) "finish idempotent" true (Manifest.finish m = m);
  (* through a string: what the artifacts embed is what report reads *)
  let json =
    match Json.of_string (Json.to_string ~pretty:true (Manifest.to_json m)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "manifest does not reparse: %s" e
  in
  (match Manifest.of_json json with
  | Ok m' -> Alcotest.(check bool) "manifest round-trips" true (m = m')
  | Error e -> Alcotest.failf "of_json: %s" e);
  (* unfinished manifests round-trip their None through null *)
  let m0 = Manifest.create ~cmdline:[ "x" ] ~version:"v" () in
  (match Manifest.of_json (Manifest.to_json m0) with
  | Ok m0' -> Alcotest.(check bool) "unfinished round-trips" true (m0 = m0')
  | Error e -> Alcotest.failf "of_json unfinished: %s" e);
  (* a sharded run's manifest as written before the placement digest
     was dropped: the stale member is ignored, every other field kept *)
  let older =
    {|{
  "schema": "omn-manifest 1",
  "cmdline": ["omn", "delay-cdf", "c.omn", "--max-hops", "4", "--workers", "2"],
  "config": {"max_hops": 4, "checkpoint_every": 8, "budget_seconds": null, "supervised": false},
  "seed": 1,
  "trace_sha256": "f20f9751713167b8fd22ff6af22a6bc082ea016454584b354b3be89780ba207b",
  "trace_name": "continuous-random-temporal",
  "n_nodes": 12,
  "n_contacts": 17,
  "omn_version": "1.0.0",
  "git_describe": null,
  "ocaml_version": "5.1.1",
  "domains": 1,
  "workers": 2,
  "shard_map_sha256": "d5a349dc7dbe3db1a6cd288367271ad6358f5388c8c9a51b1186412451808df9",
  "hostname": "vm",
  "started_unix_s": 1792392223.982531,
  "started": "2026-10-19T06:43:43Z",
  "finished_unix_s": 1792392224.003165,
  "finished": "2026-10-19T06:43:44Z"
}|}
  in
  let expected =
    {
      Manifest.schema_version = "omn-manifest 1";
      cmdline = [ "omn"; "delay-cdf"; "c.omn"; "--max-hops"; "4"; "--workers"; "2" ];
      config =
        [
          ("max_hops", Json.Int 4); ("checkpoint_every", Json.Int 8); ("budget_seconds", Json.Null);
          ("supervised", Json.Bool false);
        ];
      seed = Some 1;
      trace_sha256 = Some "f20f9751713167b8fd22ff6af22a6bc082ea016454584b354b3be89780ba207b";
      trace_name = Some "continuous-random-temporal";
      n_nodes = Some 12;
      n_contacts = Some 17;
      omn_version = "1.0.0";
      git_describe = None;
      ocaml_version = "5.1.1";
      domains = Some 1;
      workers = Some 2;
      hostname = "vm";
      started = 1792392223.982531;
      finished = Some 1792392224.003165;
    }
  in
  match Result.bind (Json.of_string older) Manifest.of_json with
  | Ok m -> Alcotest.(check bool) "older sharded manifest loads, fields intact" true (m = expected)
  | Error e -> Alcotest.failf "older sharded manifest rejected: %s" e

let test_manifest_window () =
  (* Regression: the committed bench artifact once showed [finished] five
     microseconds after [started] because both were stamped at
     JSON-build time. A manifest created before the work and finished at
     sink time must cover the work's wall clock. *)
  let m0 = Manifest.create ~version:"window-test" () in
  Unix.sleepf 0.05;
  let m = Manifest.finish m0 in
  match m.finished with
  | None -> Alcotest.fail "finish did not stamp"
  | Some fin ->
    Alcotest.(check bool)
      (Printf.sprintf "manifest window covers the run (%.6fs)" (fin -. m.started))
      true
      (fin -. m.started >= 0.04)

(* -- sha256 --------------------------------------------------------------- *)

let test_sha256_vectors () =
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string) (Printf.sprintf "sha256 of %d bytes" (String.length input)) expect
        (Sha256.string input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      (* 55/56 straddle the one-vs-two padding blocks boundary *)
      (String.make 55 'a', "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (String.make 56 'a', "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ];
  (* file digest = digest of the file's bytes *)
  let tmp = Filename.temp_file "omn-sha" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ()) @@ fun () ->
  Omn_robust.Atomic_file.write_string tmp "abc";
  Alcotest.(check string) "file digest"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (Sha256.file tmp)

(* -- report --------------------------------------------------------------- *)

let test_report_build () =
  let tl = fresh () in
  Timeline.record ~tl ~ts:1.5 (Timeline.Chunk { index = 0; items = 4; start = 1.0 });
  Timeline.record ~tl ~ts:2.1 (Timeline.Chunk { index = 1; items = 4; start = 1.5 });
  Timeline.record ~tl ~ts:2.0 (Timeline.Pool_work { start = 1.0; stolen = false });
  Timeline.record ~tl ~ts:2.2 (Timeline.Ckpt_write { path = "c"; seconds = 0.2 });
  Timeline.record ~tl ~ts:2.3 (Timeline.Io_retry { op = "read" });
  let manifest = Manifest.to_json (Manifest.create ~cmdline:[ "omn" ] ~version:"test" ()) in
  let timeline = Trace_export.to_json ~manifest (Timeline.snapshot ~tl ()) in
  let report = Report.build ~timeline () in
  Alcotest.(check int) "no drops" 0 (Report.dropped_events report);
  (match Option.bind (Json.member "chunks" report) (Json.member "count") with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "chunk count wrong");
  (match Option.bind (Json.member "checkpoints" report) (Json.member "writes") with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "checkpoint writes wrong");
  (match Option.bind (Json.member "resilience" report) (Json.member "io_retries") with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "io retries wrong");
  (match Option.bind (Json.member "manifest" report) (Json.member "cmdline") with
  | Some (Json.List [ Json.String "omn" ]) -> ()
  | _ -> Alcotest.fail "manifest not echoed");
  (* the human renderer accepts what build produces *)
  let buf = Buffer.create 256 in
  Report.pp (Format.formatter_of_buffer buf) report;
  Alcotest.(check bool) "pp renders something" true (Buffer.length buf > 0);
  (* dropped events from the ring surface in the report *)
  let small = fresh ~capacity:2 () in
  for i = 0 to 9 do
    mark small i
  done;
  let tj = Trace_export.to_json (Timeline.snapshot ~tl:small ()) in
  Alcotest.(check int) "drops surface" 8 (Report.dropped_events (Report.build ~timeline:tj ()))

(* -- the I/O and rotation hooks --------------------------------------------- *)

(* Retry_io and Checkpoint cannot see the registry; the driver points
   their hooks at it. A real rotation and a real retried read must
   reach the journal and the counters with no event recorded by hand. *)
let test_io_and_rotation_hooks () =
  let m_was = Metrics.enabled () and t_was = Timeline.enabled () in
  Metrics.reset ();
  Timeline.reset ();
  Metrics.set_enabled true;
  Timeline.set_enabled true;
  let path = Filename.temp_file "omn_hooks" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Omn_robust.Retry_io.set_inject None;
      Omn_robust.Checkpoint.remove path;
      Metrics.set_enabled m_was;
      Timeline.set_enabled t_was;
      Metrics.reset ();
      Timeline.reset ())
  @@ fun () ->
  let events () = List.map (fun (_, (e : Timeline.entry)) -> e.ev) (Timeline.snapshot ()).events in
  (* a clock that ticks once per read: the budget runs out after the
     second batch, so the second checkpoint save rotates the first *)
  let ticks = ref 0. in
  let clock () =
    let t = !ticks in
    ticks := t +. 1.;
    t
  in
  let trace = Util.random_trace (Rng.create 0x5eed) ~n:8 ~m:40 ~horizon:50 in
  (match
     Result.bind (Omn_core.Delay_cdf.plan ~max_hops:3 trace)
       (Omn_core.Driver.run ~checkpoint:path ~checkpoint_every:2 ~budget_seconds:1.5 ~clock)
   with
  | Ok o -> Alcotest.(check int) "two batches, then the budget" 4 o.progress.sources_done
  | Error e -> Alcotest.failf "driver failed: %s" (Omn_robust.Err.to_string e));
  Alcotest.(check bool) "the second save rotated the first" true
    (Sys.file_exists (Omn_robust.Checkpoint.prev_path path));
  Alcotest.(check bool) "Ckpt_rotate recorded" true
    (List.mem (Timeline.Ckpt_rotate { path }) (events ()));
  let fails = Atomic.make 1 in
  Omn_robust.Retry_io.set_inject
    (Some
       (fun ~op ~path:_ ->
         if op = "read" && Atomic.fetch_and_add fails (-1) > 0 then
           raise (Omn_robust.Retry_io.Injected "io")));
  ignore (Omn_robust.Retry_io.read_to_string path);
  Alcotest.(check bool) "Io_retry recorded" true
    (List.mem (Timeline.Io_retry { op = "read" }) (events ()));
  Alcotest.(check (option int)) "resilience.io_retries counted" (Some 1)
    (Metrics.counter_total (Metrics.snapshot ()) "resilience.io_retries")

let suite =
  [
    Alcotest.test_case "ring overflow drops oldest, counts exactly" `Quick test_overflow_exact;
    Alcotest.test_case "disabled journal is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "4-domain concurrent recording, no tearing" `Quick
      test_concurrent_no_tearing;
    Alcotest.test_case "chrome trace export round trip" `Quick test_export_roundtrip;
    Alcotest.test_case "fleet merge: offset-corrected per-worker tracks" `Quick test_fleet_export;
    Alcotest.test_case "report fleet section" `Quick test_report_fleet;
    Alcotest.test_case "e2e: spans cover measured busy time" `Quick test_e2e_coverage;
    Alcotest.test_case "bit-identity under tracing" `Quick test_bit_identity_timeline;
    Alcotest.test_case "manifest JSON round trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest window covers a sleep-bearing run" `Quick test_manifest_window;
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "report analyzer" `Quick test_report_build;
    Alcotest.test_case "I/O retry and checkpoint rotation hooks reach the registry" `Quick
      test_io_and_rotation_hooks;
  ]
