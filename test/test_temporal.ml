module Contact = Omn_temporal.Contact
module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Trace_stream = Omn_temporal.Trace_stream
module Trace_stats = Omn_temporal.Trace_stats
module Rng = Omn_stats.Rng

(* --- Contact --- *)

let contact_canonical () =
  let c = Contact.make ~a:5 ~b:2 ~t_beg:1. ~t_end:3. in
  Alcotest.(check int) "a is min" 2 c.a;
  Alcotest.(check int) "b is max" 5 c.b;
  Alcotest.(check (float 0.)) "duration" 2. (Contact.duration c);
  Alcotest.(check int) "peer" 5 (Contact.peer c 2);
  Alcotest.(check bool) "involves" true (Contact.involves c 5);
  Alcotest.(check bool) "not involves" false (Contact.involves c 3)

let contact_rejects () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "self contact" (fun () -> Contact.make ~a:1 ~b:1 ~t_beg:0. ~t_end:1.);
  expect_invalid "negative id" (fun () -> Contact.make ~a:(-1) ~b:2 ~t_beg:0. ~t_end:1.);
  expect_invalid "reversed interval" (fun () -> Contact.make ~a:0 ~b:1 ~t_beg:2. ~t_end:1.);
  expect_invalid "nan" (fun () -> Contact.make ~a:0 ~b:1 ~t_beg:nan ~t_end:1.)

let contact_point_allowed () =
  let c = Contact.make ~a:0 ~b:1 ~t_beg:5. ~t_end:5. in
  Alcotest.(check (float 0.)) "zero duration" 0. (Contact.duration c)

let contact_overlaps () =
  let c1 = Contact.make ~a:0 ~b:1 ~t_beg:0. ~t_end:2. in
  let c2 = Contact.make ~a:0 ~b:1 ~t_beg:2. ~t_end:4. in
  let c3 = Contact.make ~a:0 ~b:1 ~t_beg:2.5 ~t_end:4. in
  Alcotest.(check bool) "touching intervals overlap" true (Contact.overlaps c1 c2);
  Alcotest.(check bool) "disjoint" false (Contact.overlaps c1 c3)

(* --- Trace --- *)

let trace_rejects () =
  let c = Contact.make ~a:0 ~b:5 ~t_beg:0. ~t_end:1. in
  (match Trace.create ~n_nodes:3 ~t_start:0. ~t_end:1. [ c ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range node accepted");
  match Trace.create ~n_nodes:6 ~t_start:0.5 ~t_end:2. [ c ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "contact outside window accepted"

(* Regression: create_result used to validate only [c.b >= n_nodes]. A
   forged contact — [Marshal] or [Obj.magic] can bypass the private
   constructor's canonicalisation — with a negative or out-of-range [a]
   crashed the adjacency build instead of returning a typed Range
   error. The tuple below has the same runtime representation as the
   [Contact.t] record. *)
let trace_rejects_forged_contact () =
  let forged a b : Contact.t = Obj.magic (a, b, 0.5, 1.0) in
  let expect_range ?(names = "") label c =
    match Trace.create_result ~n_nodes:4 ~t_start:0. ~t_end:2. [ c ] with
    | Error (e : Omn_robust.Err.t) ->
      Alcotest.(check bool) (label ^ ": typed Range error") true (e.code = Omn_robust.Err.Range);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" label e.msg names)
        true
        (Util.contains_substring e.msg names)
    | Ok _ -> Alcotest.failf "%s: forged contact accepted" label
  in
  expect_range "negative a" (forged (-3) 2);
  expect_range "a out of range" (forged 7 9);
  expect_range "b out of range" (forged 1 9);
  (* A forged self-contact would sit twice in its node's row and be
     linked to itself in [csr_prev], which the journey sweep reads as
     an earlier contact of the same pair. *)
  expect_range ~names:"node 2" "self-contact" (forged 2 2);
  (* Forged bounds: a reversed or NaN interval used to pass the window
     test (NaN compares false) and break the start order the journey
     sweep relies on. *)
  let forged_bounds t_beg t_end : Contact.t = Obj.magic (0, 1, t_beg, t_end) in
  let expect_window label c =
    match Trace.create_result ~n_nodes:4 ~t_start:0. ~t_end:2. [ c ] with
    | Error (e : Omn_robust.Err.t) ->
      Alcotest.(check bool) (label ^ ": typed Window error") true (e.code = Omn_robust.Err.Window)
    | Ok _ -> Alcotest.failf "%s: forged contact accepted" label
  in
  expect_window "reversed bounds" (forged_bounds 1.5 0.5);
  expect_window "NaN start" (forged_bounds nan 1.0);
  expect_window "NaN end" (forged_bounds 0.5 nan)

let trace_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* m = int_range 0 25 in
    let* seed = int in
    return (Util.random_trace (Rng.create seed) ~n ~m ~horizon:20))

let trace_adjacency_complete =
  QCheck2.Test.make ~count:300 ~name:"node_contacts partitions contacts" trace_gen (fun trace ->
      let n = Trace.n_nodes trace in
      let total = ref 0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        let cs = Trace.node_contacts trace u in
        total := !total + Array.length cs;
        Array.iter (fun c -> if not (Contact.involves c u) then ok := false) cs;
        (* sorted *)
        for i = 1 to Array.length cs - 1 do
          if Contact.compare_by_start cs.(i - 1) cs.(i) > 0 then ok := false
        done;
        if Trace.degree trace u <> Array.length cs then ok := false
      done;
      !ok && !total = 2 * Trace.n_contacts trace)

let trace_pair_contacts =
  QCheck2.Test.make ~count:300 ~name:"pair_contacts = filtered contacts" trace_gen
    (fun trace ->
      let n = Trace.n_nodes trace in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let got = Trace.pair_contacts trace u v in
          let expected =
            Trace.fold
              (fun acc (c : Contact.t) -> if c.a = u && c.b = v then c :: acc else acc)
              [] trace
            |> List.rev
          in
          if got <> expected then ok := false
        done
      done;
      !ok)

(* Few nodes and three start times, so that pairs repeat and share
   start times: the cases where [csr_prev] could link the wrong way. *)
let repeat_trace_gen =
  QCheck2.Gen.(
    let* n = int_range 2 3 in
    let* m = int_range 0 30 in
    let* seed = int in
    let rng = Rng.create seed in
    return
      (Util.trace_of_contacts ~n_nodes:n ~t_start:0. ~t_end:20.
         (List.init m (fun _ ->
              let a = Rng.int rng n in
              let b = (a + 1 + Rng.int rng (n - 1)) mod n in
              let tb = 5 * Rng.int rng 3 in
              (min a b, max a b, float_of_int tb, float_of_int (tb + Rng.int rng 6))))))

let trace_csr_prev =
  QCheck2.Test.make ~count:300 ~name:"csr_prev = latest earlier contact of the pair"
    repeat_trace_gen (fun trace ->
      let prev = (Trace.time_csr trace).Trace.csr_prev in
      let m = Trace.n_contacts trace in
      let same i p =
        let ci = Trace.contact trace i and cp = Trace.contact trace p in
        ci.a = cp.a && ci.b = cp.b
      in
      if Array.length prev <> m then
        QCheck2.Test.fail_reportf "csr_prev has %d entries for %d contacts" (Array.length prev) m;
      for i = 0 to m - 1 do
        let rec latest p = if p < 0 || same i p then p else latest (p - 1) in
        let want = latest (i - 1) in
        if prev.(i) <> want then
          QCheck2.Test.fail_reportf "contact %d: csr_prev %d, want %d" i prev.(i) want
      done;
      true)

(* Same-pair contacts that overlap, nest, repeat exactly or have zero
   length: starts in {0, 2, 5, 8}, lengths in {0, 0, 1, 3, 7}, and now
   and then a copy of the previous contact. *)
let pair_index_gen =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* m = int_range 0 40 in
    let* seed = int in
    let rng = Rng.create seed in
    let starts = [| 0; 2; 5; 8 |] and lengths = [| 0; 0; 1; 3; 7 |] in
    let draw () =
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let tb = starts.(Rng.int rng 4) in
      (min a b, max a b, float_of_int tb, float_of_int (tb + lengths.(Rng.int rng 5)))
    in
    let rec build k prev acc =
      if k = 0 then List.rev acc
      else
        let c = match prev with Some c when Rng.int rng 4 = 0 -> c | _ -> draw () in
        build (k - 1) (Some c) (c :: acc)
    in
    return (Util.trace_of_contacts ~n_nodes:n ~t_start:0. ~t_end:20. (build m None [])))

(* The pair index against a scan of [Trace.contact]: node [u]'s runs
   name each peer it meets once, and the run of the pair [{u, v}] is
   its contacts in start order minus those whose end does not exceed
   an earlier contact's, so the kept ends strictly increase. *)
let trace_pair_index =
  QCheck2.Test.make ~count:500 ~name:"pair index = each pair's contacts minus the nested ones"
    pair_index_gen (fun trace ->
      let csr = Trace.time_csr trace in
      let n = Trace.n_nodes trace and m = Trace.n_contacts trace in
      let runs = csr.pair_runs and off = csr.node_pair_off and entries = csr.node_pairs in
      let meets u v =
        let found = ref false in
        for i = 0 to m - 1 do
          let c = Trace.contact trace i in
          if c.a = min u v && c.b = max u v then found := true
        done;
        !found
      in
      let expected u v =
        let top = ref neg_infinity and acc = ref [] in
        for i = 0 to m - 1 do
          let c = Trace.contact trace i in
          if c.a = min u v && c.b = max u v then begin
            if c.t_end > !top then acc := i :: !acc;
            top := Float.max !top c.t_end
          end
        done;
        List.rev !acc
      in
      if Array.length off <> n + 1 then
        QCheck2.Test.fail_reportf "node_pair_off has %d entries for %d nodes" (Array.length off) n;
      let listed = ref 0 and run_words = ref 0 in
      for u = 0 to n - 1 do
        let peers = Array.make n false in
        for k = off.(u) to off.(u + 1) - 1 do
          let run = entries.(k) in
          let got = List.init runs.(run) (fun j -> runs.(run + 1 + j)) in
          let v =
            match got with
            | [] -> QCheck2.Test.fail_reportf "node %d: empty run at %d" u run
            | i :: _ ->
              let c = Trace.contact trace i in
              if c.a = u then c.b
              else if c.b = u then c.a
              else QCheck2.Test.fail_reportf "node %d: run %d holds contact %d of (%d, %d)" u run i c.a c.b
          in
          if peers.(v) then QCheck2.Test.fail_reportf "node %d lists peer %d twice" u v;
          peers.(v) <- true;
          let want = expected u v in
          if got <> want then
            QCheck2.Test.fail_reportf "pair (%d, %d): run [%s], want [%s]" u v
              (String.concat "; " (List.map string_of_int got))
              (String.concat "; " (List.map string_of_int want));
          ignore
            (List.fold_left
               (fun last i ->
                 let te = (Trace.contact trace i).t_end in
                 if not (te > last) then
                   QCheck2.Test.fail_reportf "pair (%d, %d): end %g after %g" u v te last;
                 te)
               neg_infinity got);
          incr listed;
          run_words := !run_words + 1 + List.length got
        done;
        for v = 0 to n - 1 do
          if v <> u && peers.(v) <> meets u v then
            QCheck2.Test.fail_reportf "node %d: peer %d listed %b, meets %b" u v peers.(v)
              (meets u v)
        done
      done;
      if Array.length entries <> !listed || Array.length runs <> !run_words / 2 then
        QCheck2.Test.fail_reportf "index arrays hold %d entries and %d run words, beyond the runs"
          (Array.length entries) (Array.length runs);
      true)

let trace_contact_rate () =
  let trace =
    Util.trace_of_contacts ~n_nodes:4 ~t_start:0. ~t_end:100.
      [ (0, 1, 0., 10.); (2, 3, 50., 60.) ]
  in
  (* 2 contacts * 2 endpoints / (4 nodes * 100 s) *)
  Alcotest.(check (float 1e-12)) "rate" 0.01 (Trace.contact_rate trace);
  Alcotest.(check int) "active" 4 (Trace.active_nodes trace)

let trace_io_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"Trace_io round-trip" trace_gen (fun trace ->
      let reloaded = Trace_io.of_string (Trace_io.to_string trace) in
      Trace.n_nodes reloaded = Trace.n_nodes trace
      && Trace.t_start reloaded = Trace.t_start trace
      && Trace.t_end reloaded = Trace.t_end trace
      && Trace.name reloaded = Trace.name trace
      && Array.for_all2 Contact.equal (Trace.contacts reloaded) (Trace.contacts trace))

let trace_io_file () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 5.); (1, 2, 3., 8.) ] in
  (* fractional times: a text of several of the writer's 64 KiB pieces *)
  let big = Util.random_trace ~scale:0.37 (Rng.create 3) ~n:30 ~m:4000 ~horizon:5000 in
  let path = Filename.temp_file "omn" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* digests (manifests, the shard job's trace_sha256, the workers'
         trace cache) hash [to_string]; a saved file must be those bytes *)
      List.iter
        (fun t ->
          Trace_io.save t path;
          Alcotest.(check string) "save writes to_string" (Trace_io.to_string t)
            (In_channel.with_open_bin path In_channel.input_all))
        [ big; trace ];
      let reloaded = Trace_io.load path in
      Alcotest.(check int) "contacts" 2 (Trace.n_contacts reloaded))

let trace_io_headerless () =
  let trace = Trace_io.of_string "0 1 2.5 3.5\n2 1 0 1\n" in
  Alcotest.(check int) "nodes inferred" 3 (Trace.n_nodes trace);
  Alcotest.(check (float 0.)) "window inferred lo" 0. (Trace.t_start trace);
  Alcotest.(check (float 0.)) "window inferred hi" 3.5 (Trace.t_end trace)

let same_trace a b =
  Trace.n_nodes a = Trace.n_nodes b
  && Trace.t_start a = Trace.t_start b
  && Trace.t_end a = Trace.t_end b
  && Trace.name a = Trace.name b
  && Array.for_all2 Contact.equal (Trace.contacts a) (Trace.contacts b)

let trace_io_roundtrip_edges () =
  let check_rt name trace =
    Alcotest.(check bool) name true (same_trace trace (Trace_io.of_string (Trace_io.to_string trace)))
  in
  check_rt "empty trace" (Trace.create ~n_nodes:0 ~t_start:0. ~t_end:0. []);
  check_rt "empty window, nodes only" (Trace.create ~n_nodes:5 ~t_start:3. ~t_end:3. []);
  check_rt "zero-duration contact"
    (Util.trace_of_contacts ~n_nodes:3 ~t_start:0. ~t_end:10. [ (0, 2, 5., 5.) ]);
  (* a declared window wider than any record must survive the round trip *)
  check_rt "window disagrees with records"
    (Util.trace_of_contacts ~n_nodes:4 ~t_start:0. ~t_end:100. [ (1, 2, 40., 60.) ]);
  check_rt "negative times"
    (Util.trace_of_contacts ~n_nodes:2 ~t_start:(-50.) ~t_end:(-10.) [ (0, 1, -40., -20.) ])

let trace_io_clean_repair =
  QCheck2.Test.make ~count:200 ~name:"repair on clean input only merges duplicates" trace_gen
    (fun trace ->
      match Trace_io.parse ~policy:Omn_robust.Repair.Repair (Trace_io.to_string trace) with
      | Error _ -> false
      | Ok (t, report) ->
        (* random traces may contain exact duplicate contacts, which
           Repair legitimately merges; nothing else may change *)
        List.for_all
          (fun (e : Omn_robust.Repair.event) -> e.action = Omn_robust.Repair.Merged_duplicate)
          report.Omn_robust.Repair.events
        && Trace.n_nodes t = Trace.n_nodes trace
        && Trace.t_start t = Trace.t_start trace
        && Trace.t_end t = Trace.t_end trace)

let trace_io_fixture_errors () =
  let module Err = Omn_robust.Err in
  let expect text code line =
    match Trace_io.parse text with
    | Error (e : Err.t) ->
      Alcotest.(check string)
        (Printf.sprintf "%S code" text)
        (Err.code_name code) (Err.code_name e.code);
      Alcotest.(check (option int)) (Printf.sprintf "%S line" text) (Some line) e.line
    | Ok _ -> Alcotest.failf "%S should be rejected" text
  in
  expect "0 1 3" Err.Parse 1;
  expect "0 1 0 1\n0 1 nope 3" Err.Parse 2;
  expect "# nodes x\n0 1 0 1" Err.Header 1;
  expect "# window 0 oops\n" Err.Header 1;
  expect "# window 5 1\n" Err.Header 1;
  expect "0 1 0 1\n0 0 2 3" Err.Contact 2;
  expect "0 1 nan 3" Err.Contact 1;
  expect "-1 1 0 3" Err.Contact 1;
  expect "0 1 2 1" Err.Contact 1;
  expect "# window 0 5\n0 1 0 2\n0 1 4 9" Err.Window 3;
  expect "# nodes 1\n0 1 0 1" Err.Range 2;
  expect "# nodes -3\n" Err.Header 1

let trace_io_errors () =
  (match Trace_io.of_string "0 1 nope 3" with
  | exception Failure msg ->
    Alcotest.(check bool) "line number in error" true
      (String.length msg > 0 && String.contains msg '1')
  | _ -> Alcotest.fail "malformed line accepted");
  match Trace_io.of_string "0 1 3" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "short line accepted"

(* --- Trace_stats --- *)

let stats_durations () =
  let trace =
    Util.trace_of_contacts [ (0, 1, 0., 10.); (0, 1, 20., 25.); (1, 2, 30., 50.) ]
  in
  Alcotest.(check (float 1e-9)) "frac <= 10" (2. /. 3.)
    (Trace_stats.fraction_duration_leq trace 10.);
  let s = Trace_stats.summary trace in
  Alcotest.(check (float 1e-9)) "median" 10. s.median_duration;
  Alcotest.(check (float 1e-9)) "mean" (35. /. 3.) s.mean_duration

let stats_inter_contact () =
  let trace =
    Util.trace_of_contacts [ (0, 1, 0., 10.); (0, 1, 30., 35.); (0, 1, 32., 40.); (1, 2, 5., 6.) ]
  in
  match Trace_stats.inter_contact_times trace with
  | None -> Alcotest.fail "expected gaps"
  | Some d ->
    (* gaps for pair (0,1): 30-10 = 20, and 0 (overlapping records). *)
    Alcotest.(check int) "two gaps" 2 (Omn_stats.Empirical.count d);
    Alcotest.(check (float 1e-9)) "max gap" 20. (Omn_stats.Empirical.quantile d 1.)

let stats_next_contact () =
  let trace =
    Util.trace_of_contacts ~t_end:30. [ (0, 1, 10., 12.); (0, 2, 20., 21.) ]
  in
  let steps = Trace_stats.next_contact_steps trace 0 in
  (* From 0: wait until 10; in contact 10-12; wait until 20; contact 20-21; nothing after. *)
  let del t =
    (* next arrival for departure t per the staircase: last step with fst <= t *)
    let rec go best = function
      | (d, a) :: rest when d <= t -> go (Some a) rest
      | _ -> best
    in
    match go None steps with Some a -> Float.max t a | None -> infinity
  in
  Alcotest.(check (float 1e-9)) "wait at 0" 10. (del 0.);
  Alcotest.(check (float 1e-9)) "inside first" 11. (del 11.);
  Alcotest.(check (float 1e-9)) "between" 20. (del 15.);
  Alcotest.(check bool) "after all" true (del 25. = infinity)

let stats_empty_trace () =
  let trace = Trace.create ~n_nodes:3 ~t_start:0. ~t_end:10. [] in
  let s = Trace_stats.summary trace in
  Alcotest.(check int) "no contacts" 0 s.n_contacts;
  Alcotest.(check int) "no active nodes" 0 s.active_nodes;
  Alcotest.(check int) "nodes still counted" 3 s.n_nodes;
  Alcotest.(check bool) "median is nan" true (Float.is_nan s.median_duration);
  Alcotest.(check bool) "mean is nan" true (Float.is_nan s.mean_duration);
  Alcotest.(check (float 0.)) "rate" 0. s.contact_rate_per_day;
  Alcotest.(check (float 0.)) "frac <= anything is 0" 0.
    (Trace_stats.fraction_duration_leq trace 1e9);
  Alcotest.(check bool) "no inter-contact gaps" true
    (Trace_stats.inter_contact_times trace = None);
  (match Trace_stats.duration_distribution trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duration_distribution on empty trace should reject");
  (* the staircase of a node with no contacts: wait forever from t_start *)
  (match Trace_stats.next_contact_steps trace 0 with
  | [ (t, inf) ] ->
    Alcotest.(check (float 0.)) "from t_start" 0. t;
    Alcotest.(check bool) "never" true (inf = infinity)
  | _ -> Alcotest.fail "expected a single infinite step");
  let profile = Trace_stats.contacts_per_window trace ~window:2.5 in
  Alcotest.(check int) "windows over empty trace" 4 (Array.length profile);
  Array.iter (fun (_, k) -> Alcotest.(check int) "all windows empty" 0 k) profile;
  (* degenerate window: zero span still yields one (empty) window *)
  let point = Trace.create ~n_nodes:2 ~t_start:5. ~t_end:5. [] in
  (match Trace_stats.contacts_per_window point ~window:1. with
  | [| (t, 0) |] -> Alcotest.(check (float 0.)) "window starts at t_start" 5. t
  | _ -> Alcotest.fail "zero-span trace should give one empty window");
  match Trace_stats.contacts_per_window trace ~window:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window <= 0 should reject"

let stats_single_contact () =
  let trace = Util.trace_of_contacts ~n_nodes:4 ~t_start:0. ~t_end:20. [ (1, 2, 4., 10.) ] in
  let s = Trace_stats.summary trace in
  Alcotest.(check int) "one contact" 1 s.n_contacts;
  Alcotest.(check int) "two active nodes" 2 s.active_nodes;
  Alcotest.(check (float 1e-9)) "median = the duration" 6. s.median_duration;
  Alcotest.(check (float 1e-9)) "mean = the duration" 6. s.mean_duration;
  (* one contact per pair: no successive interval, hence no gap *)
  Alcotest.(check bool) "no gaps from a single contact" true
    (Trace_stats.inter_contact_times trace = None);
  Alcotest.(check (float 1e-9)) "frac below" 0. (Trace_stats.fraction_duration_leq trace 5.9);
  Alcotest.(check (float 1e-9)) "frac at" 1. (Trace_stats.fraction_duration_leq trace 6.);
  let ccdf = Trace_stats.duration_ccdf trace [| 0.; 6.; 7. |] in
  Alcotest.(check (float 1e-9)) "ccdf before" 1. ccdf.(0);
  (* ccdf is P(X > g): at the single duration it drops to 0 *)
  Alcotest.(check (float 1e-9)) "ccdf at" 0. ccdf.(1);
  Alcotest.(check (float 1e-9)) "ccdf after" 0. ccdf.(2)

let stats_activity_profile () =
  let trace = Util.trace_of_contacts ~t_end:100. [ (0, 1, 5., 6.); (0, 1, 15., 16.); (1, 2, 95., 96.) ] in
  let profile = Trace_stats.contacts_per_window trace ~window:10. in
  Alcotest.(check int) "windows" 10 (Array.length profile);
  Alcotest.(check int) "first window" 1 (snd profile.(0));
  Alcotest.(check int) "second window" 1 (snd profile.(1));
  Alcotest.(check int) "last window" 1 (snd profile.(9))

(* --- non-finite windows --- *)

(* A NaN or infinite window bound is a typed Window error, raised
   before any contact is looked at: such a window could be saved but
   not read back (the readers refuse it in a header). *)
let trace_rejects_nonfinite_window () =
  let c = Contact.make ~a:0 ~b:1 ~t_beg:1. ~t_end:2. in
  let expect label ~t_start ~t_end contacts =
    (match Trace.create_result ~n_nodes:2 ~t_start ~t_end contacts with
    | Error (e : Omn_robust.Err.t) ->
      Alcotest.(check string) (label ^ ": error code") "E-WINDOW" (Omn_robust.Err.code_name e.code)
    | Ok _ -> Alcotest.failf "%s: non-finite window accepted" label);
    match Trace.create ~n_nodes:2 ~t_start ~t_end contacts with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (label ^ ": raised message is the typed one") true
        (Util.contains_substring msg "[E-WINDOW]")
    | _ -> Alcotest.failf "%s: Trace.create accepted a non-finite window" label
  in
  expect "infinite end" ~t_start:0. ~t_end:infinity [ c ];
  expect "infinite start" ~t_start:neg_infinity ~t_end:5. [ c ];
  expect "NaN window" ~t_start:nan ~t_end:nan [ c ];
  expect "NaN end, no contacts" ~t_start:0. ~t_end:nan [];
  (* checked before the contacts: an out-of-range node is not reported *)
  expect "before the contacts" ~t_start:0. ~t_end:infinity
    [ (Obj.magic (0, 9, 1., 2.) : Contact.t) ]

(* --- the store --- *)

let infocom05 = lazy (Omn_mobility.Presets.infocom05 ~seed:1 ()).trace

(* SHA-256 of [Trace_io.to_string] for the traces [omn gen -o] writes,
   recorded when a trace still kept one boxed record per contact: the
   structure-of-arrays store must write the same bytes. The random
   preset has fractional times. *)
let store_byte_pins () =
  let hours = 6. *. 3600. in
  let pins =
    [
      ( "infocom05 --seed 1",
        infocom05,
        "f2a73847fda18ca23dd3b9ffb25a7c08f243ce41dab8ec05bfa8453fd48c14a8" );
      ( "hong-kong --seed 1",
        lazy (Omn_mobility.Presets.hong_kong ~seed:1 ()).trace,
        "9aadef8c4c75c84557da72dba41ed3c67b30881524302004aab9d95bee2fe79d" );
      ( "random --nodes 40 --hours 6 --seed 7",
        lazy
          (Omn_randnet.Continuous.generate (Rng.create 7)
             { Omn_randnet.Continuous.n = 40; lambda = 2. /. 3600.; horizon = hours }),
        "a24b9140df620f9263fb092b8488327e9eafcf635124a7d27fa8f2bd448f1511" );
      ( "waypoint --nodes 40 --hours 6 --seed 7",
        lazy
          (Omn_mobility.Random_waypoint.generate (Rng.create 7)
             { Omn_mobility.Random_waypoint.default with n = 40; horizon = hours }),
        "3d2f8fd2274d6af3d641ff15ce649eedf38ecf8cc36b2029f4c0a641967db98f" );
    ]
  in
  List.iter
    (fun (label, trace, want) ->
      Alcotest.(check string) label want
        (Omn_obs.Sha256.string (Trace_io.to_string (Lazy.force trace))))
    pins

(* The writer's format, fed from a test-side record sort. *)
let render ?(t_start = 0.) ~n_nodes ~t_end (contacts : Contact.t array) =
  let b = Buffer.create 256 in
  Printf.bprintf b "# omn-trace 1\n# name trace\n# nodes %d\n# window %.17g %.17g\n" n_nodes
    t_start t_end;
  Array.iter
    (fun (c : Contact.t) -> Printf.bprintf b "%d %d %.17g %.17g\n" c.a c.b c.t_beg c.t_end)
    contacts;
  Buffer.contents b

(* Tie-heavy contacts whose times include both signs of zero, so that
   some ties under [Contact.compare_by_start] print differently; half
   the inputs come already in start order (ties in random order), where
   [create] may skip its sort only if every tie is bit-identical. *)
let signed_zero_gen =
  QCheck2.Gen.(
    let* n = int_range 2 3 in
    let* m = int_range 0 30 in
    let* seed = int in
    let* presorted = bool in
    let rng = Rng.create seed in
    let starts = [| -0.; 0.; 5.; 10. |] and lengths = [| -0.; 0.; 3. |] in
    let contacts =
      Array.init m (fun _ ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          let t_beg = starts.(Rng.int rng 4) in
          Contact.make ~a ~b ~t_beg ~t_end:(t_beg +. lengths.(Rng.int rng 3)))
    in
    if presorted then Array.stable_sort Contact.compare_by_start contacts;
    return (n, contacts))

let store_order_is_record_sort =
  QCheck2.Test.make ~count:500 ~name:"create order = record sort, signed-zero ties"
    signed_zero_gen (fun (n_nodes, input) ->
      let before = Array.copy input in
      let expected = Array.copy input in
      Array.sort Contact.compare_by_start expected;
      match Trace.create_array_result ~n_nodes ~t_start:0. ~t_end:20. input with
      | Error e -> QCheck2.Test.fail_reportf "rejected: %s" (Omn_robust.Err.to_string e)
      | Ok trace ->
        if not (Array.for_all2 ( == ) before input) then
          QCheck2.Test.fail_report "create_array_result modified its argument";
        let got = Trace_io.to_string trace and want = render ~n_nodes ~t_end:20. expected in
        if got <> want then QCheck2.Test.fail_reportf "got:\n%s\nwant:\n%s" got want;
        true)

(* The writer prints integer times below 10^15 with its own digit
   loop and every other time through the C conversion [Printf] uses:
   both must give [Printf]'s bytes. Times come from a pool around the
   edges of the two paths: integers at and around 10^15, 10^16, 10^17,
   2^53 and 2^53 + 2, one ulp either side of each, both zeros,
   subnormals and 17-digit fractions, all with both signs; the window
   bounds are pool values too. Ids have 1 to 7 digits, including the
   all-nines ones; wide ids are drawn less often, as the trace's node
   index costs a word per node. *)
let time_pool =
  let around v = List.map (fun k -> v +. float_of_int k) [ -2; -1; 0; 1; 2 ] in
  let integers = List.concat_map around [ 1e15; 1e16; 1e17; 0x1p53; 0x1p53 +. 2. ] in
  let fractions =
    [
      0.1; 1. /. 3.; 2. /. 3.; 17160.685338739098; 123456789012345.67; 999999999999999.9;
      1000000000000000.5; 0.0001; 0.00001; 1.2345678901234567e-7;
    ]
  in
  let subnormals = [ Float.succ 0.; 1e-310; Float.pred Float.min_float ] in
  let magnitudes =
    integers
    @ List.concat_map (fun v -> [ Float.pred v; Float.succ v ]) integers
    @ fractions @ subnormals @ [ 0.; 1.; 7.; 10.; 999999999999999. ]
  in
  Array.of_list (-0. :: List.concat_map (fun v -> [ v; -.v ]) magnitudes)

let writer_edges_gen =
  QCheck2.Gen.(
    let* width = frequency [ (6, int_range 1 5); (1, int_range 6 7) ] in
    let* m = int_range 1 8 in
    let* seed = int in
    let rng = Rng.create seed in
    (* ids of 1 to [width] digits: small ones, and those either side of
       each power of ten up to 10^(width - 1) *)
    let top = int_of_float (10. ** float_of_int (width - 1)) in
    let n_nodes = top + 16 in
    let id () =
      let p = int_of_float (10. ** float_of_int (Rng.int rng width)) in
      if Rng.int rng 4 = 0 then Rng.int rng 16 else max 0 (p - 2 + Rng.int rng 18)
    in
    let time () = time_pool.(Rng.int rng (Array.length time_pool)) in
    let contacts =
      Array.init m (fun _ ->
          let a = id () in
          let b = if Rng.bool rng then (a + 1) mod n_nodes else (a + n_nodes - 1) mod n_nodes in
          let t1 = time () and t2 = time () in
          let t_beg, t_end = if t1 <= t2 then (t1, t2) else (t2, t1) in
          Contact.make ~a ~b ~t_beg ~t_end)
    in
    let t_start =
      Array.fold_left (fun w (c : Contact.t) -> if c.t_beg < w then c.t_beg else w) (time ()) contacts
    and t_end =
      Array.fold_left (fun w (c : Contact.t) -> if c.t_end > w then c.t_end else w) (time ()) contacts
    in
    return (n_nodes, t_start, t_end, contacts))

let writer_matches_printf =
  QCheck2.Test.make ~count:300 ~name:"to_string = Printf render at the writer's edges"
    writer_edges_gen (fun (n_nodes, t_start, t_end, input) ->
      let expected = Array.copy input in
      Array.sort Contact.compare_by_start expected;
      match Trace.create_array_result ~n_nodes ~t_start ~t_end input with
      | Error e -> QCheck2.Test.fail_reportf "rejected: %s" (Omn_robust.Err.to_string e)
      | Ok trace ->
        let got = Trace_io.to_string trace and want = render ~t_start ~n_nodes ~t_end expected in
        if got <> want then QCheck2.Test.fail_reportf "got:\n%s\nwant:\n%s" got want;
        true)

(* Start order against the frozen global sort
   ([Start_order_reference]), bit for bit, sign of zero included. The
   inputs are runs of equal starts, 1 to 300 contacts each, whose ends
   and endpoints come in random order from small sets (so duplicates and
   ties on every key prefix are common); starts mostly rise from run to
   run, sometimes fall, may be negative, and a zero start or end is
   sometimes -0. *)
let start_order_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n_runs = int_range 1 6 in
    let* falls = bool in
    let* neg_zero = bool in
    return
      (let rng = Rng.create seed in
       let start = ref (float_of_int (Rng.int rng 5 - 2)) in
       let runs =
         List.init n_runs (fun r ->
           if r > 0 then
             start :=
               if falls && Rng.int rng 3 = 0 then !start -. float_of_int (1 + Rng.int rng 3)
               else !start +. [| 1.; 0.5; 2.; 0.25 |].(Rng.int rng 4);
           let len = if Rng.int rng 4 = 0 then 1 + Rng.int rng 300 else 1 + Rng.int rng 12 in
           List.init len (fun _ ->
             let a = Rng.int rng 4 in
             let b = a + 1 + Rng.int rng 2 in
             let t_beg = !start in
             let t_end = t_beg +. [| 0.; 1.; 0.5; 2. |].(Rng.int rng 4) in
             let flip x = if neg_zero && x = 0. && Rng.bool rng then -0. else x in
             (a, b, flip t_beg, flip t_end)))
       in
       Array.of_list (List.concat runs)))

let start_order_is_frozen_sort =
  QCheck2.Test.make ~count:300 ~name:"start order = frozen global sort, bit for bit"
    start_order_gen (fun input ->
      let buf = Trace.Builder.create 0 in
      Array.iter (fun (a, b, t_beg, t_end) -> Trace.Builder.add buf ~a ~b ~t_beg ~t_end) input;
      let col f = Array.map f input in
      let want =
        Start_order_reference.in_start_order
          (col (fun (a, _, _, _) -> a))
          (col (fun (_, b, _, _) -> b))
          (col (fun (_, _, t, _) -> t))
          (col (fun (_, _, _, t) -> t))
      in
      match Trace.of_builder_result ~n_nodes:6 ~t_start:(-20.) ~t_end:20. buf with
      | Error e -> QCheck2.Test.fail_reportf "rejected: %s" (Omn_robust.Err.to_string e)
      | Ok trace ->
        let c = Trace.time_csr trace in
        let wa, wb, wbeg, wend = want in
        let bits = Array.map Int64.bits_of_float in
        if
          not
            (c.csr_a = wa && c.csr_b = wb && bits c.csr_beg = bits wbeg
           && bits c.csr_end = bits wend)
        then
          QCheck2.Test.fail_reportf "got:\n%s\nwant:\n%s" (Trace_io.to_string trace)
            (String.concat "\n"
               (List.init (Array.length wa) (fun k ->
                  Printf.sprintf "%d %d %.17g %.17g" wa.(k) wb.(k) wbeg.(k) wend.(k))));
        true)

(* One run of 200,000 contacts (all start at 0, a valid streamed trace)
   sorts in O(m log m). An insertion sort of it makes about 10^10
   moves, many seconds; the 10 s bound catches that and leaves a loaded
   machine room. *)
let start_order_one_long_run () =
  let rng = Rng.create 0x5707 in
  let m = 200_000 in
  let buf = Trace.Builder.create m in
  for _ = 1 to m do
    let a = Rng.int rng 299 in
    Trace.Builder.add buf ~a ~b:(a + 1 + Rng.int rng (299 - a)) ~t_beg:0.
      ~t_end:(float_of_int (Rng.int rng 1000))
  done;
  let t0 = Sys.time () in
  let trace =
    match Trace.of_builder_result ~n_nodes:300 ~t_start:0. ~t_end:1000. buf with
    | Ok t -> t
    | Error e -> Alcotest.failf "rejected: %s" (Omn_robust.Err.to_string e)
  in
  let cpu = Sys.time () -. t0 in
  let c = Trace.time_csr trace in
  for i = 1 to m - 1 do
    let key k = (c.csr_end.(k), c.csr_a.(k), c.csr_b.(k)) in
    if compare (key (i - 1)) (key i) > 0 then
      Alcotest.failf "contacts %d and %d out of order" (i - 1) i
  done;
  if cpu > 10. then Alcotest.failf "200,000 contacts starting at 0 took %.2f s of CPU to build" cpu

(* Seven words per contact (four field arrays, [csr_prev], two index
   slots) and one per node, plus a constant: no record per contact.
   The pair index beside the store is bounded on its own: its arrays
   hold at most one word per contact, three per pair and one per node,
   plus one (a header word per array aside). *)
let store_footprint () =
  let trace = Lazy.force infocom05 in
  let m = Trace.n_contacts trace and n = Trace.n_nodes trace in
  let csr = Trace.time_csr trace in
  let index = [ csr.pair_runs; csr.node_pair_off; csr.node_pairs ] in
  let index_words =
    List.fold_left (fun acc a -> acc + Obj.reachable_words (Obj.repr a)) 0 index
  in
  let words = Obj.reachable_words (Obj.repr trace) - index_words in
  let bound = (7 * m) + (n + 1) + 64 in
  if words > bound then
    Alcotest.failf "Infocom05 trace: %d words (%.1f per contact) > 7m + (n + 1) + 64 = %d" words
      (float_of_int words /. float_of_int m)
      bound;
  let pairs = Hashtbl.create 1024 in
  Trace.iter (fun c -> Hashtbl.replace pairs (c.a, c.b) ()) trace;
  let pairs = Hashtbl.length pairs in
  let payload = List.fold_left (fun acc a -> acc + Array.length a) 0 index in
  let index_bound = m + (3 * pairs) + n + 1 in
  if payload > index_bound then
    Alcotest.failf "Infocom05 pair index: %d words > m + 3 pairs + n + 1 = %d (%d pairs)" payload
      index_bound pairs

(* The checkpoint fingerprint hashes the store: one contact's end moved
   by one ulp is another trace, while the same file read by either
   reader is the same trace. *)
let store_checkpoint_fingerprint () =
  let trace = Util.random_trace ~scale:0.37 (Rng.create 5) ~n:8 ~m:30 ~horizon:50 in
  let grid = [| 1.; 2.; 5.; 10.; 25.; 50. |] in
  let path = Filename.temp_file "omn_store" ".omn" and ckpt = Filename.temp_file "omn_store" ".ckpt" in
  Sys.remove ckpt;
  let step trace =
    match Omn_core.Delay_cdf.plan ~max_hops:4 ~grid trace with
    | Error e -> Alcotest.failf "plan: %s" (Omn_robust.Err.to_string e)
    | Ok plan ->
      Omn_core.Driver.run ~checkpoint_every:3 ~checkpoint:ckpt ~resume:true ~budget_seconds:0. plan
  in
  let sources_done label trace =
    match step trace with
    | Ok o -> o.Omn_core.Driver.progress.Omn_core.Delay_cdf.sources_done
    | Error e -> Alcotest.failf "%s: %s" label (Omn_robust.Err.to_string e)
  in
  let load label = function
    | Ok (t, _) -> t
    | Error e -> Alcotest.failf "%s: %s" label (Omn_robust.Err.to_string e)
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Omn_robust.Checkpoint.remove ckpt)
    (fun () ->
      Trace_io.save trace path;
      let in_memory = load "Trace_io" (Trace_io.load_result path) in
      let streamed = load "Trace_stream" (Trace_stream.load_result path) in
      let first = sources_done "first batch" in_memory in
      let contacts = Trace.contacts trace in
      let i =
        let rec find i = if contacts.(i).t_end < Trace.t_end trace then i else find (i + 1) in
        find 0
      in
      let c = contacts.(i) in
      contacts.(i) <- Contact.make ~a:c.a ~b:c.b ~t_beg:c.t_beg ~t_end:(Float.succ c.t_end);
      let moved =
        Trace.create ~n_nodes:(Trace.n_nodes trace) ~t_start:(Trace.t_start trace)
          ~t_end:(Trace.t_end trace) (Array.to_list contacts)
      in
      (match step moved with
      | Error (e : Omn_robust.Err.t) ->
        Alcotest.(check string) "one ulp: refused" "E-CHECKPOINT" (Omn_robust.Err.code_name e.code)
      | Ok _ -> Alcotest.fail "a checkpoint resumed on a trace one ulp away");
      let second = sources_done "resume through the streaming reader" streamed in
      Alcotest.(check bool) "streamed load resumed the in-memory load's checkpoint" true
        (second > first))

(* One pass over [csr_prev] gives the multiset of gaps a per-pair scan
   of sorted records gives. *)
let stats_inter_contact_brute =
  QCheck2.Test.make ~count:300 ~name:"inter_contact_times = per-pair scan" repeat_trace_gen
    (fun trace ->
      let n = Trace.n_nodes trace in
      let gaps = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let rec walk = function
            | (c1 : Contact.t) :: ((c2 : Contact.t) :: _ as rest) ->
              gaps := Float.max 0. (c2.t_beg -. c1.t_end) :: !gaps;
              walk rest
            | _ -> ()
          in
          Trace.contacts trace |> Array.to_list
          |> List.filter (fun (c : Contact.t) -> c.a = u && c.b = v)
          |> List.sort Contact.compare_by_start |> walk
        done
      done;
      let want =
        match !gaps with [] -> None | g -> Some (Omn_stats.Empirical.of_array (Array.of_list g))
      in
      Trace_stats.inter_contact_times trace = want)

let suite =
  [
    Alcotest.test_case "contact canonicalisation" `Quick contact_canonical;
    Alcotest.test_case "contact validation" `Quick contact_rejects;
    Alcotest.test_case "point contacts allowed" `Quick contact_point_allowed;
    Alcotest.test_case "interval overlap" `Quick contact_overlaps;
    Alcotest.test_case "trace validation" `Quick trace_rejects;
    Alcotest.test_case "forged contacts get typed errors" `Quick trace_rejects_forged_contact;
    Alcotest.test_case "contact rate formula" `Quick trace_contact_rate;
    Alcotest.test_case "trace file io" `Quick trace_io_file;
    Alcotest.test_case "headerless files" `Quick trace_io_headerless;
    Alcotest.test_case "io error reporting" `Quick trace_io_errors;
    Alcotest.test_case "roundtrip edge cases" `Quick trace_io_roundtrip_edges;
    Alcotest.test_case "malformed fixture corpus" `Quick trace_io_fixture_errors;
    Alcotest.test_case "duration statistics" `Quick stats_durations;
    Alcotest.test_case "inter-contact gaps" `Quick stats_inter_contact;
    Alcotest.test_case "next-contact staircase" `Quick stats_next_contact;
    Alcotest.test_case "stats on the empty trace" `Quick stats_empty_trace;
    Alcotest.test_case "stats on a single contact" `Quick stats_single_contact;
    Alcotest.test_case "activity profile" `Quick stats_activity_profile;
    Alcotest.test_case "non-finite windows get typed errors" `Quick trace_rejects_nonfinite_window;
    Alcotest.test_case "store: omn gen byte pins" `Quick store_byte_pins;
    Alcotest.test_case "store: 7 words per contact" `Quick store_footprint;
    Alcotest.test_case "store: checkpoint fingerprint" `Quick store_checkpoint_fingerprint;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        trace_adjacency_complete;
        trace_pair_contacts;
        trace_csr_prev;
        trace_io_roundtrip;
        trace_io_clean_repair;
        store_order_is_record_sort;
        stats_inter_contact_brute;
        trace_pair_index;
      ]
  @ [
      Alcotest.test_case "start order: frozen global sort; one 200,000-contact run" `Quick
        (fun () ->
          QCheck2.Test.check_exn ~rand:(Random.State.make [| 30 |]) start_order_is_frozen_sort;
          start_order_one_long_run ());
    ]
  @ List.map QCheck_alcotest.to_alcotest [ writer_matches_printf ]
