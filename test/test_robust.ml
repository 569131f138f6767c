module Err = Omn_robust.Err
module Repair = Omn_robust.Repair
module Faultgen = Omn_robust.Faultgen
module Atomic_file = Omn_robust.Atomic_file
module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Delay_cdf = Omn_core.Delay_cdf
module Diameter = Omn_core.Diameter
module Driver = Omn_core.Driver
module Rng = Omn_stats.Rng

let get_ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let expect_code ?line code = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Err.code_name code)
  | Error (e : Err.t) ->
    Alcotest.(check string) "error code" (Err.code_name code) (Err.code_name e.code);
    (match line with
    | Some l -> Alcotest.(check (option int)) "error line" (Some l) e.line
    | None -> ())

(* --- Err --- *)

let err_exit_codes () =
  Alcotest.(check int) "compute is 1" 1 (Err.exit_code Err.Compute);
  List.iter
    (fun c -> Alcotest.(check int) (Err.code_name c ^ " is 2") 2 (Err.exit_code c))
    [ Err.Parse; Err.Header; Err.Contact; Err.Window; Err.Range; Err.Io; Err.Checkpoint;
      Err.Usage ]

let err_formatting () =
  let e = Err.errf ~file:"t.omn" ~line:3 Err.Parse "bad %s" "field" in
  let s = Err.to_string e in
  List.iter
    (fun part ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" s part)
        true
        (Util.contains_substring s part))
    [ "t.omn"; "line 3"; "E-PARSE"; "bad field" ]

(* --- lenient ingestion policies --- *)

let dirty =
  String.concat "\n"
    [
      "# name dirty"; "# nodes 2"; "# window 0 10";
      "0 1 0 5" (* 4: good *); "0 0 1 2" (* 5: self loop *);
      "0 1 0 5" (* 6: duplicate of 4 *); "1 0 7 6" (* 7: reversed interval *);
      "0 1 nan 3" (* 8: non-finite *); "0 1 -2 4" (* 9: sticks out of window *);
      "0 2 1 3" (* 10: node 2 >= declared 2 *); "junk" (* 11: malformed *);
      "0 1 20 30" (* 12: fully outside window *); "";
    ]

let actions_of report = List.map (fun (e : Repair.event) -> (e.line, e.action)) report.Repair.events

let repair_policy_strict () =
  expect_code Err.Contact ~line:5 (Trace_io.parse dirty)

let repair_policy_repair () =
  let trace, report = get_ok (Trace_io.parse ~policy:Repair.Repair dirty) in
  Alcotest.(check int) "kept" 4 (Trace.n_contacts trace);
  Alcotest.(check int) "widened node count" 3 (Trace.n_nodes trace);
  Alcotest.(check (float 0.)) "window lo" 0. (Trace.t_start trace);
  Alcotest.(check (float 0.)) "window hi" 10. (Trace.t_end trace);
  Alcotest.(check int) "report kept" 4 report.Repair.kept;
  Alcotest.(check int) "dropped" 4 (Repair.n_dropped report);
  Alcotest.(check int) "repaired" 4 (Repair.n_repaired report);
  let expected =
    [
      (5, Repair.Dropped_self_loop); (6, Repair.Merged_duplicate);
      (7, Repair.Swapped_interval); (8, Repair.Dropped_nonfinite);
      (9, Repair.Clamped_to_window); (10, Repair.Widened_node_count);
      (11, Repair.Dropped_malformed); (12, Repair.Dropped_out_of_window);
    ]
  in
  Alcotest.(check bool) "event list" true (actions_of report = expected);
  (* the clamped contact really was clamped *)
  Alcotest.(check bool) "all contacts inside window" true
    (Array.for_all
       (fun (c : Omn_temporal.Contact.t) -> c.t_beg >= 0. && c.t_end <= 10.)
       (Trace.contacts trace))

let repair_policy_skip () =
  let trace, report = get_ok (Trace_io.parse ~policy:Repair.Skip dirty) in
  Alcotest.(check int) "kept (duplicates stay)" 2 (Trace.n_contacts trace);
  Alcotest.(check int) "declared node count kept" 2 (Trace.n_nodes trace);
  Alcotest.(check int) "dropped" 7 (Repair.n_dropped report);
  Alcotest.(check int) "nothing repaired" 0 (Repair.n_repaired report)

let repair_report_format () =
  let _, report = get_ok (Trace_io.parse ~policy:Repair.Repair dirty) in
  let s = Format.asprintf "%a" Repair.pp report in
  List.iter
    (fun part ->
      Alcotest.(check bool) ("report mentions " ^ part) true (Util.contains_substring s part))
    [
      "repair-report policy=repair"; "kept=4"; "repaired=4"; "dropped=4";
      "action=dropped-self-loop"; "action=merged-duplicate"; "line=12";
    ]

let lenient_reversed_window () =
  let text = "# window 9 1\n0 1 2 5\n" in
  expect_code Err.Header ~line:1 (Trace_io.parse text);
  let trace, report = get_ok (Trace_io.parse ~policy:Repair.Repair text) in
  Alcotest.(check (float 0.)) "swapped lo" 1. (Trace.t_start trace);
  Alcotest.(check (float 0.)) "swapped hi" 9. (Trace.t_end trace);
  Alcotest.(check bool) "swap event" true
    (List.exists (fun (e : Repair.event) -> e.action = Repair.Swapped_window)
       report.Repair.events);
  (* Skip ignores the unusable header and infers the window instead *)
  let trace, _ = get_ok (Trace_io.parse ~policy:Repair.Skip text) in
  Alcotest.(check (float 0.)) "inferred lo" 2. (Trace.t_start trace);
  Alcotest.(check (float 0.)) "inferred hi" 5. (Trace.t_end trace)

(* --- fault injection --- *)

let clean_text = Trace_io.to_string (Util.random_trace (Rng.create 11) ~n:6 ~m:40 ~horizon:100)

let faultgen_deterministic () =
  List.iter
    (fun fault ->
      let a = Faultgen.apply ~seed:3 fault clean_text in
      let b = Faultgen.apply ~seed:3 fault clean_text in
      Alcotest.(check string) (Faultgen.name fault ^ " deterministic") a b)
    [
      Faultgen.Truncate 0.5; Faultgen.Mangle 0.25; Faultgen.Nan_times 0.25;
      Faultgen.Self_loop 0.25; Faultgen.Negative_id 0.25; Faultgen.Window_lie;
      Faultgen.Reorder; Faultgen.Duplicate 0.25;
    ]

let faultgen_names () =
  List.iter
    (fun n ->
      match Faultgen.of_name n with
      | Some f -> Alcotest.(check string) "name roundtrip" n (Faultgen.name f)
      | None -> Alcotest.failf "of_name %S failed" n)
    Faultgen.all_names

let faultgen_corpus () =
  let variants = Faultgen.corpus ~seed:5 clean_text in
  Alcotest.(check int) "six strict-breaking variants" 6 (List.length variants);
  List.iter
    (fun (name, text) ->
      (* strict rejects with a located typed error *)
      (match Trace_io.parse text with
      | Ok _ -> Alcotest.failf "strict accepted corpus variant %s" name
      | Error e ->
        Alcotest.(check bool) (name ^ " error has a line number") true (e.Err.line <> None));
      (* repair recovers with a non-clean report *)
      let _, report = get_ok (Trace_io.parse ~policy:Repair.Repair text) in
      Alcotest.(check bool) (name ^ " repair logged events") false (Repair.is_clean report);
      (* skip also gets through *)
      let _ = get_ok (Trace_io.parse ~policy:Repair.Skip text) in
      ())
    variants

let faultgen_benign_faults_parse () =
  (* reorder and duplicate corrupt the text without breaking strict parsing *)
  let reordered = Faultgen.apply ~seed:2 Faultgen.Reorder clean_text in
  let t = Trace_io.of_string reordered in
  Alcotest.(check int) "reorder preserves contacts" 40 (Trace.n_contacts t);
  let duplicated = Faultgen.apply ~seed:2 (Faultgen.Duplicate 0.5) clean_text in
  let t = Trace_io.of_string duplicated in
  Alcotest.(check bool) "duplicates kept by strict" true (Trace.n_contacts t > 40);
  let merged, report = get_ok (Trace_io.parse ~policy:Repair.Repair duplicated) in
  Alcotest.(check bool) "repair merges duplicates back" true
    (Trace.n_contacts merged <= 40
    && List.for_all
         (fun (e : Repair.event) -> e.action = Repair.Merged_duplicate)
         report.Repair.events)

(* --- atomic writes --- *)

let atomic_write_keeps_original () =
  let path = Filename.temp_file "omn_atomic" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Atomic_file.write_string path "original";
      (match Atomic_file.write path (fun oc -> output_string oc "half"; failwith "boom") with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "write should have re-raised");
      Alcotest.(check string) "target untouched" "original" (Atomic_file.read_to_string path);
      let base = Filename.basename path in
      let leftovers =
        Sys.readdir (Filename.dirname path)
        |> Array.to_list
        |> List.filter (fun f -> f <> base && Util.contains_substring f base)
      in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

let atomic_trace_save () =
  let trace = Util.random_trace (Rng.create 3) ~n:5 ~m:12 ~horizon:40 in
  let dir = Filename.temp_file "omn_savedir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "t.omn" in
      Trace_io.save trace path;
      Alcotest.(check (list string)) "exactly the trace file" [ "t.omn" ]
        (Sys.readdir dir |> Array.to_list);
      let reloaded = Trace_io.load path in
      Alcotest.(check int) "roundtrip" (Trace.n_contacts trace) (Trace.n_contacts reloaded))

(* --- checkpoint / resume / budget --- *)

(* Fractional times, so that a resume merging in another order than
   [Delay_cdf.compute] would change the curves. *)
let ckpt_trace = Util.random_trace ~scale:0.37 (Rng.create 5) ~n:8 ~m:30 ~horizon:50

let grid = [| 1.; 2.; 5.; 10.; 25.; 50. |]
let plan ?(max_hops = 4) () = get_ok (Delay_cdf.plan ~max_hops ~grid ckpt_trace)
let full = Delay_cdf.compute ~max_hops:4 ~grid ckpt_trace

let curves_equal (a : Delay_cdf.curves) (b : Delay_cdf.curves) =
  a.grid = b.grid && a.hop_success = b.hop_success && a.hop_success_inf = b.hop_success_inf
  && a.flood_success = b.flood_success && a.flood_success_inf = b.flood_success_inf
  && a.max_rounds_used = b.max_rounds_used

let with_ckpt_file f =
  let path = Filename.temp_file "omn_ckpt" ".bin" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* One batch per call: the zero budget expires right after the first
   batch, so repeated resumed calls replay an interrupted run. *)
let step ?(domains = 1) path =
  Result.map
    (fun (o : Driver.outcome) -> (o.curves, o.progress))
    (Driver.run ~domains ~checkpoint_every:3 ~checkpoint:path ~resume:true ~budget_seconds:0.
       (plan ()))

let ckpt_resume_bit_identical () =
  with_ckpt_file (fun path ->
      let c1, p1 = get_ok (step path) in
      Alcotest.(check bool) "first step partial" true p1.Delay_cdf.partial;
      Alcotest.(check int) "first step did one batch" 3 p1.Delay_cdf.sources_done;
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      Alcotest.(check bool) "partial differs from full" false (curves_equal c1 full);
      let _, p2 = get_ok (step path) in
      Alcotest.(check int) "second step resumed" 6 p2.Delay_cdf.sources_done;
      let c3, p3 = get_ok (step path) in
      Alcotest.(check bool) "third step completes" false p3.Delay_cdf.partial;
      Alcotest.(check int) "all sources done" 8 p3.Delay_cdf.sources_done;
      Alcotest.(check bool) "checkpoint removed on completion" false (Sys.file_exists path);
      Alcotest.(check bool) "resumed run bit-identical to compute" true (curves_equal c3 full))

(* The determinism contract must hold through interruption: a run that
   checkpoints, resumes under 2 domains and completes gives exactly the
   curves of a sequential [compute]. *)
let ckpt_resume_parallel_matches_sequential () =
  with_ckpt_file (fun path ->
      let rec drive n =
        if n > 10 then Alcotest.fail "resumed run did not converge";
        let c, p = get_ok (step ~domains:2 path) in
        if p.Delay_cdf.partial then drive (n + 1) else c
      in
      let resumed = drive 0 in
      Alcotest.(check bool) "parallel resumed run bit-identical to sequential" true
        (curves_equal resumed full))

let ckpt_rejects_garbage () =
  with_ckpt_file (fun path ->
      Atomic_file.write_string path "not a checkpoint at all";
      expect_code Err.Checkpoint (step path))

let ckpt_rejects_tampering () =
  with_ckpt_file (fun path ->
      let _, _ = get_ok (step path) in
      let data = Atomic_file.read_to_string path in
      let tampered = Bytes.of_string data in
      let i = Bytes.length tampered - 1 in
      Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 0xff));
      Atomic_file.write_string path (Bytes.to_string tampered);
      expect_code Err.Checkpoint (step path))

let ckpt_rejects_parameter_mismatch () =
  with_ckpt_file (fun path ->
      let _, _ = get_ok (step path) in
      (* same trace, different max_hops -> different fingerprint *)
      expect_code Err.Checkpoint
        (Driver.run ~checkpoint:path ~resume:true (plan ~max_hops:5 ())))

(* The magic names the snapshot's layout. The previous one, [omn-ckpt
   5], held a fourth field (the failed sources); a checkpoint in it is
   refused by its magic before its payload is read, since Marshal would
   read the four-field record as the three-field one without a word. *)
let ckpt_rejects_previous_format () =
  with_ckpt_file (fun path ->
      let _ = get_ok (step path) in
      let data = Atomic_file.read_to_string path in
      let magic = "omn-ckpt 6\n" in
      let m = String.length magic in
      Alcotest.(check string) "written under omn-ckpt 6" magic (String.sub data 0 m);
      let fp, batches, done_ =
        (Marshal.from_string (String.sub data m (String.length data - m - 8)) 0
          : string * int * (int * Delay_cdf.partial) list)
      in
      let old = Marshal.to_string (fp, batches, done_, ([] : Delay_cdf.failure list)) [] in
      Atomic_file.write_string path ("omn-ckpt 5\n" ^ old ^ Omn_robust.Checkpoint.crc32_hex old);
      match step path with
      | Error (e : Err.t) ->
        Alcotest.(check string) "typed" "E-CHECKPOINT" (Err.code_name e.code);
        Alcotest.(check string) "refused by its magic" "not an omn checkpoint file" e.msg
      | Ok _ -> Alcotest.fail "an omn-ckpt 5 checkpoint was read")

(* Every bad input is a typed Usage error naming the bad value, and the
   raising entry points raise [Invalid_argument] with the same message. *)
let ckpt_usage_errors () =
  let n = Trace.n_nodes ckpt_trace in
  let plan_error ?max_hops ?sources ?dests ?windows () =
    match Delay_cdf.plan ?max_hops ?sources ?dests ~grid ?windows ckpt_trace with
    | Ok _ -> Alcotest.fail "bad plan accepted"
    | Error (e : Err.t) ->
      Alcotest.(check string) "error code" "E-USAGE" (Err.code_name e.code);
      (match Delay_cdf.compute ?max_hops ?sources ?dests ~grid ?windows ckpt_trace with
      | _ -> Alcotest.failf "compute accepted what plan rejects (%s)" e.msg
      | exception Invalid_argument msg ->
        Alcotest.(check string) "compute raises the same message" e.msg msg);
      e.msg
  in
  let names needle msg =
    Alcotest.(check bool) (Printf.sprintf "%S names %S" msg needle) true
      (Util.contains_substring msg needle)
  in
  names "max_hops 0" (plan_error ~max_hops:0 ());
  names "empty source list" (plan_error ~sources:[] ());
  names "source 999" (plan_error ~sources:[ 0; 999 ] ());
  names "source -1" (plan_error ~sources:[ -1 ] ());
  names (Printf.sprintf "destination %d" n) (plan_error ~dests:[ n ] ());
  names "reversed window (5, 1)" (plan_error ~windows:[ (5., 1.) ] ());
  names "empty window list" (plan_error ~windows:[] ());
  names "non-finite window (nan, 10)" (plan_error ~windows:[ (Float.nan, 10.) ] ());
  names "non-finite window (0, inf)" (plan_error ~windows:[ (0., infinity) ] ());
  names "non-finite window (-inf, 10)" (plan_error ~windows:[ (neg_infinity, 10.) ] ());
  (match Delay_cdf.source_partial ~dests:[ 999 ] ckpt_trace 0 with
  | _ -> Alcotest.fail "source_partial accepted an out-of-range destination"
  | exception Invalid_argument msg -> names "destination 999" msg);
  (match Diameter.measure ~sources:[] ckpt_trace with
  | _ -> Alcotest.fail "measure accepted an empty source list"
  | exception Invalid_argument msg -> names "empty source list" msg);
  expect_code Err.Usage (Driver.run ~checkpoint_every:0 (plan ()));
  expect_code Err.Usage (Driver.run ~budget_seconds:(-1.) (plan ()));
  expect_code Err.Usage (Driver.run ~budget_seconds:Float.nan (plan ()));
  (* an infinite budget is no limit *)
  let complete (o : Driver.outcome) = not o.progress.Delay_cdf.partial in
  Alcotest.(check bool) "infinite budget completes" true
    (complete (get_ok (Driver.run ~budget_seconds:infinity (plan ()))));
  (match Diameter.of_curves ~epsilon:Float.nan full with
  | _ -> Alcotest.fail "of_curves accepted epsilon nan"
  | exception Invalid_argument msg -> names "epsilon nan" msg);
  (match Diameter.vs_delay ~epsilon:Float.nan full with
  | _ -> Alcotest.fail "vs_delay accepted epsilon nan"
  | exception Invalid_argument msg -> names "epsilon nan" msg);
  expect_code Err.Usage (Driver.run ~domains:0 (plan ()))

(* A batched run (budget and reporter on) gives [Diameter.measure]'s
   diameter and curves. *)
let batched_diameter_complete () =
  let reports = ref 0 in
  let o =
    get_ok
      (Driver.run ~checkpoint_every:3 ~budget_seconds:1e9 ~report:(fun _ _ -> incr reports)
         (plan ()))
  in
  Alcotest.(check bool) "complete" false o.progress.Delay_cdf.partial;
  Alcotest.(check int) "all sources" 8 o.progress.Delay_cdf.sources_total;
  Alcotest.(check int) "one report per batch" 3 !reports;
  let direct = Diameter.measure ~epsilon:0.01 ~max_hops:4 ~grid ckpt_trace in
  Alcotest.(check (option int)) "diameter agrees with measure" direct.Diameter.diameter
    (Diameter.of_curves ~epsilon:0.01 o.curves);
  Alcotest.(check bool) "curves agree with measure" true
    (curves_equal direct.Diameter.curves o.curves)

let budget_partial_is_uniform_prefix () =
  let o = get_ok (Driver.run ~checkpoint_every:2 ~budget_seconds:0. (plan ())) in
  let p = o.Driver.progress in
  Alcotest.(check bool) "partial" true p.Delay_cdf.partial;
  Alcotest.(check int) "one batch" 2 p.Delay_cdf.sources_done;
  Alcotest.(check int) "out of all" 8 p.Delay_cdf.sources_total

let suite =
  [
    Alcotest.test_case "exit codes" `Quick err_exit_codes;
    Alcotest.test_case "error formatting" `Quick err_formatting;
    Alcotest.test_case "strict rejects dirt" `Quick repair_policy_strict;
    Alcotest.test_case "repair policy" `Quick repair_policy_repair;
    Alcotest.test_case "skip policy" `Quick repair_policy_skip;
    Alcotest.test_case "repair report format" `Quick repair_report_format;
    Alcotest.test_case "reversed window header" `Quick lenient_reversed_window;
    Alcotest.test_case "faultgen determinism" `Quick faultgen_deterministic;
    Alcotest.test_case "faultgen names" `Quick faultgen_names;
    Alcotest.test_case "faultgen corpus recovery" `Quick faultgen_corpus;
    Alcotest.test_case "benign faults still parse" `Quick faultgen_benign_faults_parse;
    Alcotest.test_case "atomic write keeps original" `Quick atomic_write_keeps_original;
    Alcotest.test_case "atomic trace save" `Quick atomic_trace_save;
    Alcotest.test_case "checkpoint resume bit-identical" `Quick ckpt_resume_bit_identical;
    Alcotest.test_case "parallel resume matches sequential" `Quick
      ckpt_resume_parallel_matches_sequential;
    Alcotest.test_case "checkpoint rejects garbage" `Quick ckpt_rejects_garbage;
    Alcotest.test_case "checkpoint rejects tampering" `Quick ckpt_rejects_tampering;
    Alcotest.test_case "checkpoint rejects parameter mismatch" `Quick
      ckpt_rejects_parameter_mismatch;
    Alcotest.test_case "usage errors are typed" `Quick ckpt_usage_errors;
    Alcotest.test_case "batched driver diameter = measure" `Quick batched_diameter_complete;
    Alcotest.test_case "budget yields labelled partial" `Quick budget_partial_is_uniform_prefix;
    Alcotest.test_case "checkpoint of the previous format refused" `Quick
      ckpt_rejects_previous_format;
  ]
