(* Observability layer: registry semantics, domain merging, spans, JSON
   round trips — and the contract that instrumentation never perturbs
   computed results (bit-identity of Delay_cdf with metrics on/off). *)

module Metrics = Omn_obs.Metrics
module Span = Omn_obs.Span
module Json = Omn_obs.Json
module Rng = Omn_stats.Rng

let fresh_enabled () =
  let reg = Metrics.create () in
  Metrics.set_enabled ~reg true;
  reg

(* -- registry basics ----------------------------------------------------- *)

let test_counter_basics () =
  let reg = fresh_enabled () in
  let c = Metrics.counter ~reg "jobs" in
  Metrics.incr c;
  Metrics.add c 4;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check (option int)) "total" (Some 5) (Metrics.counter_total snap "jobs");
  Alcotest.(check (option int)) "absent" None (Metrics.counter_total snap "nope");
  (* find-or-create: a second registration shares the metric *)
  let c' = Metrics.counter ~reg "jobs" in
  Metrics.incr c';
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check (option int)) "shared handle" (Some 6) (Metrics.counter_total snap "jobs")

let test_kind_mismatch () =
  let reg = fresh_enabled () in
  let _ = Metrics.counter ~reg "x" in
  Alcotest.check_raises "counter-vs-gauge"
    (Invalid_argument "Metrics.gauge: x is registered as another type") (fun () ->
      ignore (Metrics.gauge ~reg "x"))

let test_disabled_noop () =
  let reg = Metrics.create () in
  (* registries start disabled *)
  Alcotest.(check bool) "starts disabled" false (Metrics.enabled ~reg ());
  let c = Metrics.counter ~reg "c" in
  let g = Metrics.gauge ~reg "g" in
  let h = Metrics.histogram ~reg "h" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.gadd g 3.0;
  Metrics.set g 7.0;
  Metrics.observe h 0.5;
  let v = Span.with_ ~reg ~name:"s" (fun () -> 42) in
  Alcotest.(check int) "span returns value" 42 v;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check (option int)) "counter untouched" (Some 0) (Metrics.counter_total snap "c");
  Util.check_float "gauge untouched" 0. (Option.get (Metrics.gauge_total snap "g"));
  let hv = Option.get (Metrics.find_histogram snap "h") in
  Alcotest.(check int) "histogram untouched" 0 hv.Metrics.h_count;
  Alcotest.(check bool) "no spans" true (snap.Metrics.spans = [])

let test_reset () =
  let reg = fresh_enabled () in
  let c = Metrics.counter ~reg "c" in
  Metrics.add c 9;
  ignore (Span.with_ ~reg ~name:"s" (fun () -> ()));
  Metrics.reset ~reg ();
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check (option int)) "counter zeroed, still registered" (Some 0)
    (Metrics.counter_total snap "c");
  Alcotest.(check bool) "spans dropped" true (snap.Metrics.spans = [])

(* -- histograms ---------------------------------------------------------- *)

let test_histogram_buckets () =
  (* bucket bounds: geometric, ratio 2, from 1e-9; last is infinity *)
  Util.check_float "bucket 0" 1e-9 (Metrics.bucket_le 0);
  Util.check_float "bucket 1" 2e-9 (Metrics.bucket_le 1);
  Alcotest.(check bool) "last bucket infinite" true (Metrics.bucket_le 63 = infinity);
  for i = 0 to 62 do
    if not (Metrics.bucket_le i < Metrics.bucket_le (i + 1)) then
      Alcotest.failf "bucket bounds not increasing at %d" i
  done;
  let reg = fresh_enabled () in
  let h = Metrics.histogram ~reg "lat" in
  Metrics.observe h 0.;          (* <= 1e-9 -> bucket 0 *)
  Metrics.observe h (-1.0);      (* negatives also land in bucket 0 *)
  Metrics.observe h 1.5e-9;      (* (1e-9, 2e-9] -> bucket 1 *)
  Metrics.observe h 1e30;        (* beyond 1e-9 * 2^62 -> last bucket *)
  Metrics.observe h nan;         (* ignored *)
  let snap = Metrics.snapshot ~reg () in
  let hv = Option.get (Metrics.find_histogram snap "lat") in
  Alcotest.(check int) "count (nan dropped)" 4 hv.Metrics.h_count;
  Util.check_float "min" (-1.0) hv.Metrics.h_min;
  Util.check_float "max" 1e30 hv.Metrics.h_max;
  let bucket le =
    match List.assoc_opt le hv.Metrics.h_buckets with Some n -> n | None -> 0
  in
  Alcotest.(check int) "bucket 1e-9" 2 (bucket 1e-9);
  Alcotest.(check int) "bucket 2e-9" 1 (bucket 2e-9);
  Alcotest.(check int) "overflow bucket" 1 (bucket infinity);
  (* empty histogram: registered but never observed *)
  let _ = Metrics.histogram ~reg "empty" in
  let snap = Metrics.snapshot ~reg () in
  let ev = Option.get (Metrics.find_histogram snap "empty") in
  Alcotest.(check int) "empty count" 0 ev.Metrics.h_count;
  Alcotest.(check bool) "empty min" true (ev.Metrics.h_min = infinity);
  Alcotest.(check bool) "empty max" true (ev.Metrics.h_max = neg_infinity)

(* -- merging across raw domains ------------------------------------------ *)

let test_merge_across_domains () =
  let reg = fresh_enabled () in
  let c = Metrics.counter ~reg "tasks" in
  let g = Metrics.gauge ~reg "busy" in
  let h = Metrics.histogram ~reg "wait" in
  Metrics.add c 5;
  Metrics.gadd g 1.5;
  Metrics.observe h 0.25;
  let worker () =
    Metrics.add c 3;
    Metrics.gadd g 2.5;
    Metrics.observe h 0.5;
    ignore (Span.with_ ~reg ~name:"worker" (fun () -> 1))
  in
  let d1 = Domain.spawn worker in
  let d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check (option int)) "counter merged" (Some 11) (Metrics.counter_total snap "tasks");
  (match List.assoc_opt "tasks" snap.Metrics.counters with
  | None -> Alcotest.fail "counter missing from snapshot"
  | Some (_, per_domain) ->
    Alcotest.(check int) "three shards contributed" 3 (List.length per_domain);
    let ids = List.map fst per_domain in
    Alcotest.(check bool) "per-domain ids sorted" true (List.sort compare ids = ids);
    Alcotest.(check int) "per-domain values sum to total" 11
      (List.fold_left (fun a (_, v) -> a + v) 0 per_domain));
  Util.check_float "gauge merged by sum" 6.5 (Option.get (Metrics.gauge_total snap "busy"));
  let hv = Option.get (Metrics.find_histogram snap "wait") in
  Alcotest.(check int) "histogram count merged" 3 hv.Metrics.h_count;
  Util.check_float "histogram sum merged" 1.25 hv.Metrics.h_sum;
  Util.check_float "histogram min" 0.25 hv.Metrics.h_min;
  Util.check_float "histogram max" 0.5 hv.Metrics.h_max;
  let sv = Option.get (Metrics.find_span snap "worker") in
  Alcotest.(check int) "spans from both domains aggregate" 2 sv.Metrics.sv_count

(* -- spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let reg = fresh_enabled () in
  let r =
    Span.with_ ~reg ~name:"outer" (fun () ->
        let a = Span.with_ ~reg ~name:"inner" (fun () -> 20) in
        let b = Span.with_ ~reg ~name:"inner" (fun () -> 22) in
        a + b)
  in
  Alcotest.(check int) "nested result" 42 r;
  let snap = Metrics.snapshot ~reg () in
  let paths = List.map (fun sv -> sv.Metrics.sv_path) snap.Metrics.spans in
  Alcotest.(check (list string)) "paths" [ "outer"; "outer/inner" ] paths;
  let outer = Option.get (Metrics.find_span snap "outer") in
  let inner = Option.get (Metrics.find_span snap "outer/inner") in
  Alcotest.(check int) "outer count" 1 outer.Metrics.sv_count;
  Alcotest.(check int) "inner count" 2 inner.Metrics.sv_count;
  Alcotest.(check bool) "outer wall >= inner wall" true
    (outer.Metrics.sv_wall >= inner.Metrics.sv_wall);
  Alcotest.(check bool) "wall non-negative" true (inner.Metrics.sv_wall >= 0.)

let test_span_exception () =
  let reg = fresh_enabled () in
  (match Span.with_ ~reg ~name:"boom" (fun () -> failwith "expected") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "exception propagates" "expected" m);
  let snap = Metrics.snapshot ~reg () in
  let sv = Option.get (Metrics.find_span snap "boom") in
  Alcotest.(check int) "span recorded despite raise" 1 sv.Metrics.sv_count;
  (* the stack was unwound: a subsequent span is a root, not boom/next *)
  ignore (Span.with_ ~reg ~name:"next" (fun () -> ()));
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check bool) "stack unwound after raise" true
    (Option.is_some (Metrics.find_span snap "next"))

(* -- JSON ----------------------------------------------------------------- *)

let test_json_parse () =
  (match Json.of_string "  {\"a\": [1, 2.5, true, null, \"x\\u0041\\n\"], \"b\": -3} " with
  | Ok
      (Json.Obj
         [
           ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null; Json.String "xA\n" ]);
           ("b", Json.Int (-3));
         ]) ->
    ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.of_string "{} garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.of_string "{\"unterminated\": " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted");
  (* doubles survive a print/parse round trip exactly *)
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string (Json.Float v)) with
      | Ok (Json.Float v') when v' = v -> ()
      | other ->
        Alcotest.failf "float %.17g did not round-trip: %s" v
          (match other with Ok j -> Json.to_string j | Error e -> e))
    [ 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308; -2.5 ];
  (* pretty and compact printing parse back to the same value *)
  let j = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.String "s" ]); ("y", Json.Null) ] in
  Alcotest.(check bool) "pretty round trip" true (Json.of_string (Json.to_string ~pretty:true j) = Ok j);
  Alcotest.(check bool) "compact round trip" true (Json.of_string (Json.to_string j) = Ok j)

let test_json_nonfinite () =
  (* non-finite floats print as string sentinels, never as bare nan/inf
     (which no JSON parser accepts) *)
  Alcotest.(check string) "nan" "\"NaN\"" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "\"Infinity\"" (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf" "\"-Infinity\""
    (Json.to_string (Json.Float Float.neg_infinity));
  (* and to_float maps the sentinels back *)
  (match Option.map Float.is_nan (Json.to_float (Json.String "NaN")) with
  | Some true -> ()
  | _ -> Alcotest.fail "NaN sentinel did not decode");
  Alcotest.(check (option (float 0.))) "Infinity decodes" (Some Float.infinity)
    (Json.to_float (Json.String "Infinity"));
  Alcotest.(check (option (float 0.))) "-Infinity decodes" (Some Float.neg_infinity)
    (Json.to_float (Json.String "-Infinity"));
  Alcotest.(check (option (float 0.))) "other strings do not" None
    (Json.to_float (Json.String "Inf"));
  (* the full print -> parse -> decode path, nested in a value *)
  let j = Json.Obj [ ("v", Json.Float Float.infinity); ("w", Json.Float 2.5) ] in
  match Json.of_string (Json.to_string ~pretty:true j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' ->
    Alcotest.(check (option (float 0.))) "survives round trip" (Some Float.infinity)
      (Option.bind (Json.member "v" j') Json.to_float);
    Alcotest.(check (option (float 0.))) "finite neighbour intact" (Some 2.5)
      (Option.bind (Json.member "w" j') Json.to_float)

(* Spans recorded inside pool tasks land on whichever domain ran the
   task: the submitter sees them under its current stack ("outer/task"),
   helper domains as roots ("task"). The split is nondeterministic, but
   the total across both paths is exact and the outer span stays
   single. *)
let test_span_across_pool () =
  let reg = fresh_enabled () in
  let n = 64 in
  Omn_parallel.Pool.with_pool ~domains:3 (fun pool ->
      let out =
        Span.with_ ~reg ~name:"outer" (fun () ->
            Omn_parallel.Pool.map pool
              (fun i -> Span.with_ ~reg ~name:"task" (fun () -> i * 2))
              (Array.init n Fun.id))
      in
      Alcotest.(check bool) "results correct" true
        (out = Array.init n (fun i -> i * 2)));
  let snap = Metrics.snapshot ~reg () in
  let count path =
    match Metrics.find_span snap path with Some sv -> sv.Metrics.sv_count | None -> 0
  in
  Alcotest.(check int) "outer ran once" 1 (count "outer");
  Alcotest.(check int) "every task span recorded exactly once" n
    (count "task" + count "outer/task");
  Alcotest.(check int) "no other task paths" 0
    (List.length
       (List.filter
          (fun sv ->
            (match sv.Metrics.sv_path with
            | "task" | "outer/task" | "outer" -> false
            | _ -> true)
            && sv.Metrics.sv_count > 0)
          snap.Metrics.spans))

let test_snapshot_roundtrip () =
  let reg = fresh_enabled () in
  let c = Metrics.counter ~reg "a.count" in
  let g = Metrics.gauge ~reg "a.gauge" in
  let h = Metrics.histogram ~reg "a.histo" in
  let _ = Metrics.histogram ~reg "a.empty" in
  Metrics.add c 17;
  Metrics.gadd g 2.25;
  Metrics.observe h 1e-3;
  Metrics.observe h 0.125;
  ignore (Span.with_ ~reg ~name:"top" (fun () -> Span.with_ ~reg ~name:"sub" (fun () -> ())));
  let snap = Metrics.snapshot ~reg () in
  let json = Metrics.snapshot_to_json snap in
  (* schema marker present *)
  (match Json.member "schema" json with
  | Some (Json.String "omn-metrics 1") -> ()
  | _ -> Alcotest.fail "schema field missing or wrong");
  (* through a string: what --metrics writes is what we can read back *)
  let s = Json.to_string ~pretty:true json in
  match Json.of_string s with
  | Error e -> Alcotest.failf "snapshot JSON does not reparse: %s" e
  | Ok j2 -> (
    match Metrics.snapshot_of_json j2 with
    | Error e -> Alcotest.failf "snapshot_of_json: %s" e
    | Ok snap2 ->
      Alcotest.(check bool) "snapshot round-trips through JSON" true (snap = snap2))

(* -- cross-process merge --------------------------------------------------- *)

let test_merge_basic () =
  let reg_a = fresh_enabled () in
  let reg_b = fresh_enabled () in
  Metrics.add (Metrics.counter ~reg:reg_a "jobs") 5;
  Metrics.add (Metrics.counter ~reg:reg_a "only_a") 2;
  Metrics.gadd (Metrics.gauge ~reg:reg_a "busy") 1.5;
  Metrics.observe (Metrics.histogram ~reg:reg_a "lat") 0.25;
  Metrics.observe (Metrics.histogram ~reg:reg_a "lat") 4.0;
  Metrics.span_record reg_a ~path:"work" ~wall:1.0 ~cpu:0.5;
  Metrics.add (Metrics.counter ~reg:reg_b "jobs") 3;
  Metrics.add (Metrics.counter ~reg:reg_b "only_b") 7;
  Metrics.gadd (Metrics.gauge ~reg:reg_b "busy") 2.5;
  Metrics.observe (Metrics.histogram ~reg:reg_b "lat") 0.25;
  Metrics.span_record reg_b ~path:"work" ~wall:2.0 ~cpu:1.0;
  let a = Metrics.snapshot ~reg:reg_a () in
  let b = Metrics.snapshot ~reg:reg_b () in
  let m = Metrics.merge a b in
  Alcotest.(check (option int)) "shared counter sums" (Some 8) (Metrics.counter_total m "jobs");
  Alcotest.(check (option int)) "a-only kept" (Some 2) (Metrics.counter_total m "only_a");
  Alcotest.(check (option int)) "b-only kept" (Some 7) (Metrics.counter_total m "only_b");
  Util.check_float "gauge sums" 4.0 (Option.get (Metrics.gauge_total m "busy"));
  let hv = Option.get (Metrics.find_histogram m "lat") in
  Alcotest.(check int) "histogram count" 3 hv.Metrics.h_count;
  Util.check_float "histogram sum" 4.5 hv.Metrics.h_sum;
  Util.check_float "histogram min" 0.25 hv.Metrics.h_min;
  Util.check_float "histogram max" 4.0 hv.Metrics.h_max;
  (let bucket le =
     match List.assoc_opt le hv.Metrics.h_buckets with Some n -> n | None -> 0
   in
   let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hv.Metrics.h_buckets in
   Alcotest.(check int) "bucket counts sum to h_count" 3 total;
   let le_of v =
     let rec go i = if Metrics.bucket_le i >= v then Metrics.bucket_le i else go (i + 1) in
     go 0
   in
   Alcotest.(check int) "0.25 bucket holds both observations" 2 (bucket (le_of 0.25)));
  let sv = Option.get (Metrics.find_span m "work") in
  Alcotest.(check int) "span counts add" 2 sv.Metrics.sv_count;
  Util.check_float "span wall adds" 3.0 sv.Metrics.sv_wall;
  (* identity element *)
  Alcotest.(check bool) "empty is a left identity" true
    (Metrics.merge Metrics.empty_snapshot a = a);
  Alcotest.(check bool) "empty is a right identity" true
    (Metrics.merge a Metrics.empty_snapshot = a)

let test_tag_worker () =
  let reg = fresh_enabled () in
  let c = Metrics.counter ~reg "tasks" in
  Metrics.add c 4;
  let d = Domain.spawn (fun () -> Metrics.add c 6) in
  Domain.join d;
  let z = Metrics.counter ~reg "zero" in
  ignore z;
  Metrics.gadd (Metrics.gauge ~reg "busy") 2.5;
  let snap = Metrics.snapshot ~reg () in
  (match List.assoc_opt "tasks" snap.Metrics.counters with
  | Some (_, cells) -> Alcotest.(check int) "two domain cells before tagging" 2 (List.length cells)
  | None -> Alcotest.fail "counter missing");
  let tagged = Metrics.tag_worker ~worker:3 snap in
  (match List.assoc_opt "tasks" tagged.Metrics.counters with
  | Some (total, cells) ->
    Alcotest.(check int) "total preserved" 10 total;
    Alcotest.(check (list (pair int int))) "one cell keyed by worker" [ (3, 10) ] cells
  | None -> Alcotest.fail "counter missing after tagging");
  (match List.assoc_opt "zero" tagged.Metrics.counters with
  | Some (0, []) -> ()
  | Some _ -> Alcotest.fail "zero-total counter should keep empty cells"
  | None -> Alcotest.fail "zero counter missing");
  (match List.assoc_opt "busy" tagged.Metrics.gauges with
  | Some (total, [ (3, v) ]) ->
    Util.check_float "gauge total preserved" 2.5 total;
    Util.check_float "gauge cell is the total" 2.5 v
  | _ -> Alcotest.fail "gauge not collapsed to one worker cell");
  (* tagging two workers and merging keeps both breakdowns *)
  let m = Metrics.merge (Metrics.tag_worker ~worker:0 snap) (Metrics.tag_worker ~worker:1 snap) in
  match List.assoc_opt "tasks" m.Metrics.counters with
  | Some (20, [ (0, 10); (1, 10) ]) -> ()
  | Some (t, cells) ->
    Alcotest.failf "merged tagged counter: total %d, %d cells" t (List.length cells)
  | None -> Alcotest.fail "merged tagged counter missing"

let test_with_counter () =
  let reg = fresh_enabled () in
  Metrics.add (Metrics.counter ~reg "b") 1;
  let snap = Metrics.snapshot ~reg () in
  (* replace an existing counter: total recomputed from the cells *)
  let s1 = Metrics.with_counter "b" [ (1, 4); (0, 2) ] snap in
  (match List.assoc_opt "b" s1.Metrics.counters with
  | Some (6, [ (0, 2); (1, 4) ]) -> ()
  | _ -> Alcotest.fail "replacement cells not sorted or total wrong");
  (* insert a new one: the assoc list stays name-sorted *)
  let s2 = Metrics.with_counter "a" [ (0, 3) ] s1 in
  let names = List.map fst s2.Metrics.counters in
  Alcotest.(check (list string)) "sorted after insert" (List.sort compare names) names;
  Alcotest.(check (option int)) "inserted total" (Some 3) (Metrics.counter_total s2 "a");
  (* round-trips through JSON like any recorded counter *)
  match Metrics.snapshot_of_json (Metrics.snapshot_to_json s2) with
  | Ok s2' -> Alcotest.(check bool) "stamped snapshot round-trips" true (s2 = s2')
  | Error e -> Alcotest.failf "stamped snapshot JSON: %s" e

let test_prometheus () =
  let reg = fresh_enabled () in
  Metrics.add (Metrics.counter ~reg "shard.jobs") 5;
  Metrics.gadd (Metrics.gauge ~reg "pool.busy") 2.5;
  let h = Metrics.histogram ~reg "lat" in
  Metrics.observe h 0.25;
  Metrics.observe h 4.0;
  let snap = Metrics.tag_worker ~worker:0 (Metrics.snapshot ~reg ()) in
  let text = Metrics.to_prometheus snap in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  List.iter
    (fun line -> if not (has line) then Alcotest.failf "exposition missing %S in:\n%s" line text)
    [
      "# TYPE omn_shard_jobs counter";
      "omn_shard_jobs 5";
      "omn_shard_jobs{worker=\"0\"} 5";
      "# TYPE omn_pool_busy gauge";
      "omn_pool_busy{worker=\"0\"} 2.5";
      "# TYPE omn_lat histogram";
      "omn_lat_bucket{le=\"+Inf\"} 2";
      "omn_lat_sum 4.25";
      "omn_lat_count 2";
    ];
  (* every counter total in the snapshot appears as a total line *)
  List.iter
    (fun (name, (total, _)) ->
      let mapped =
        "omn_"
        ^ String.map
            (fun ch ->
              match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> ch | _ -> '_')
            name
      in
      if not (has (Printf.sprintf "%s %d" mapped total)) then
        Alcotest.failf "no total line for %s" name)
    snap.Metrics.counters;
  (* cumulative buckets: counts are non-decreasing in le *)
  Alcotest.(check bool) "ends with newline" true (String.length text > 0 && text.[String.length text - 1] = '\n')

(* QCheck: merge is associative, commutative and order-insensitive.
   Snapshots are built from generated observation scripts with
   integer-valued floats, so float addition is exact and the algebraic
   laws hold structurally, not just approximately. *)

type mop = MC of int * int | MG of int * int | MH of int * int | MS of int * int

let snap_of_script ops =
  let reg = fresh_enabled () in
  List.iter
    (fun op ->
      match op with
      | MC (i, n) -> Metrics.add (Metrics.counter ~reg (Printf.sprintf "c%d" i)) n
      | MG (i, n) -> Metrics.gadd (Metrics.gauge ~reg (Printf.sprintf "g%d" i)) (float_of_int n)
      | MH (i, n) ->
        Metrics.observe (Metrics.histogram ~reg (Printf.sprintf "h%d" i)) (float_of_int n)
      | MS (i, n) ->
        Metrics.span_record reg
          ~path:(Printf.sprintf "s%d" i)
          ~wall:(float_of_int n) ~cpu:(float_of_int n))
    ops;
  Metrics.snapshot ~reg ()

let mop_gen =
  QCheck2.Gen.(
    let idx = int_range 0 3 and v = int_range 0 1000 in
    oneof
      [
        map2 (fun i n -> MC (i, n)) idx v;
        map2 (fun i n -> MG (i, n)) idx v;
        map2 (fun i n -> MH (i, n)) idx v;
        map2 (fun i n -> MS (i, n)) idx v;
      ])

let script_gen = QCheck2.Gen.(list_size (int_range 0 30) mop_gen)

let prop_merge_assoc_comm =
  QCheck2.Test.make ~count:150 ~name:"metrics merge is associative and commutative"
    QCheck2.Gen.(triple script_gen script_gen script_gen)
    (fun (sa, sb, sc) ->
      let a = snap_of_script sa and b = snap_of_script sb and c = snap_of_script sc in
      if Metrics.merge (Metrics.merge a b) c <> Metrics.merge a (Metrics.merge b c) then
        QCheck2.Test.fail_report "merge not associative";
      if Metrics.merge a b <> Metrics.merge b a then
        QCheck2.Test.fail_report "merge not commutative";
      if Metrics.merge a Metrics.empty_snapshot <> a then
        QCheck2.Test.fail_report "empty_snapshot not a right identity";
      true)

let prop_merge_order_insensitive =
  QCheck2.Test.make ~count:100 ~name:"merge_all is order-insensitive; totals add up"
    QCheck2.Gen.(pair (list_size (int_range 0 5) script_gen) int)
    (fun (scripts, seed) ->
      let snaps = List.mapi (fun w s -> Metrics.tag_worker ~worker:w (snap_of_script s)) scripts in
      let merged = Metrics.merge_all snaps in
      let rng = Rng.create seed in
      let shuffled =
        List.map snd
          (List.sort compare (List.map (fun s -> (Rng.int rng 1_000_000, s)) snaps))
      in
      if Metrics.merge_all shuffled <> merged then
        QCheck2.Test.fail_report "merge_all depends on worker order";
      (* each counter's merged total is the sum over the inputs *)
      List.iter
        (fun (name, (total, _)) ->
          let expect =
            List.fold_left
              (fun acc s -> acc + Option.value ~default:0 (Metrics.counter_total s name))
              0 snaps
          in
          if total <> expect then
            QCheck2.Test.fail_reportf "counter %s: merged %d <> summed %d" name total expect)
        merged.Metrics.counters;
      true)

let prop_prometheus_totals =
  QCheck2.Test.make ~count:80 ~name:"prometheus exposition totals match the snapshot"
    script_gen
    (fun script ->
      let snap = Metrics.tag_worker ~worker:1 (snap_of_script script) in
      let text = Metrics.to_prometheus snap in
      let lines = String.split_on_char '\n' text in
      List.iter
        (fun (name, (total, _)) ->
          let want = Printf.sprintf "omn_%s %d" name total in
          if not (List.mem want lines) then
            QCheck2.Test.fail_reportf "missing %S" want)
        snap.Metrics.counters;
      true)

(* -- bit-identity: metrics must not perturb results ----------------------- *)

let test_bit_identity () =
  let trace = Util.random_trace (Rng.create 0xB17) ~n:8 ~m:60 ~horizon:50 in
  let was = Metrics.enabled () in
  let compute () = Omn_core.Delay_cdf.compute ~max_hops:4 ~domains:2 trace in
  Metrics.set_enabled false;
  let off = compute () in
  Metrics.set_enabled true;
  let on_ = compute () in
  Metrics.set_enabled was;
  Alcotest.(check bool) "delay-cdf curves identical with metrics on/off" true (off = on_)

(* The journey sweep's and the accumulation's layer counters count
   work, not scheduling: the same totals at 1 and 2 domains, every
   point a frontier kept was first emitted as a candidate, every
   candidate the pair rule rejected is also a pruned point, and some
   but not all rounds walked points. *)
let test_journey_counters () =
  let trace = Util.random_trace (Rng.create 0x5EE) ~n:10 ~m:150 ~horizon:60 in
  let names =
    [
      "journey.extends"; "journey.candidates"; "journey.pair_repeats"; "frontier.points_kept";
      "frontier.points_pruned"; "journey.rounds"; "journey.point_rounds"; "delay_cdf.segments";
    ]
  in
  let totals () =
    let snap = Metrics.snapshot () in
    List.map (fun name -> Option.value ~default:0 (Metrics.counter_total snap name)) names
  in
  let counted domains =
    let before = totals () in
    ignore (Omn_core.Delay_cdf.compute ~max_hops:4 ~domains trace);
    List.combine names (List.map2 ( - ) (totals ()) before)
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let one, two =
    Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () -> (counted 1, counted 2))
  in
  let get name = List.assoc name one in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " at 1 and 2 domains") (get name) (List.assoc name two))
    names;
  Alcotest.(check bool) "extends counted" true (get "journey.extends" > 0);
  Alcotest.(check bool) "candidates >= points_kept" true
    (get "journey.candidates" >= get "frontier.points_kept");
  Alcotest.(check bool) "pair repeats counted" true (get "journey.pair_repeats" > 0);
  Alcotest.(check bool) "rounds counted" true (get "journey.rounds" > 0);
  Alcotest.(check bool) "point rounds among the rounds" true
    (0 < get "journey.point_rounds" && get "journey.point_rounds" < get "journey.rounds");
  Alcotest.(check bool) "segments counted" true (get "delay_cdf.segments" > 0);
  Alcotest.(check bool) "pair_repeats <= points_pruned" true
    (get "journey.pair_repeats" <= get "frontier.points_pruned")

(* Every load builds its trace once: one [trace.create] span per load,
   through either reader, and the [trace.store_bytes] gauge holds the
   store's array payload. *)
let test_trace_create_layer () =
  let module Trace = Omn_temporal.Trace in
  let trace = Util.random_trace ~scale:0.37 (Rng.create 0x70) ~n:9 ~m:120 ~horizon:80 in
  let path = Filename.temp_file "omn_obs" ".omn" in
  let was = Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled was;
      Sys.remove path)
    (fun () ->
      Omn_temporal.Trace_io.save trace path;
      List.iter
        (fun (reader, load) ->
          Metrics.reset ();
          Metrics.set_enabled true;
          let loaded =
            match load path with
            | Ok (t, _) -> t
            | Error e -> Alcotest.failf "%s: %s" reader (Omn_robust.Err.to_string e)
          in
          Metrics.set_enabled false;
          let snap = Metrics.snapshot () in
          let count =
            match Metrics.find_span snap "trace.create" with Some v -> v.sv_count | None -> 0
          in
          Alcotest.(check int) (reader ^ ": one trace.create span") 1 count;
          let csr = Trace.time_csr loaded in
          let m = Array.length csr.csr_a and n = Trace.n_nodes loaded in
          let ints = (3 * m) + (2 * m) + (n + 1) and floats = 2 * m in
          Alcotest.(check (option (float 0.)))
            (reader ^ ": trace.store_bytes") (Some (float_of_int ((ints * (Sys.word_size / 8)) + (floats * 8))))
            (Metrics.gauge_total snap "trace.store_bytes"))
        [
          ("Trace_io", Omn_temporal.Trace_io.load_result ?policy:None);
          ("Trace_stream", Omn_temporal.Trace_stream.load_result ?policy:None);
        ])

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
    Alcotest.test_case "disabled registry is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "merge across domains" `Quick test_merge_across_domains;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "json parse/print" `Quick test_json_parse;
    Alcotest.test_case "json non-finite sentinels" `Quick test_json_nonfinite;
    Alcotest.test_case "spans aggregate across pool workers" `Quick test_span_across_pool;
    Alcotest.test_case "snapshot JSON round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "cross-process merge" `Quick test_merge_basic;
    Alcotest.test_case "tag_worker collapses cells" `Quick test_tag_worker;
    Alcotest.test_case "with_counter stamps cells" `Quick test_with_counter;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
    Alcotest.test_case "bit-identity under instrumentation" `Quick test_bit_identity;
    Alcotest.test_case "journey counters domain-independent" `Quick test_journey_counters;
    Alcotest.test_case "trace.create span and store gauge" `Quick test_trace_create_layer;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_merge_assoc_comm; prop_merge_order_insensitive; prop_prometheus_totals ]
