module Contact = Omn_temporal.Contact
module Trace = Omn_temporal.Trace
module Transform = Omn_temporal.Transform
module Rng = Omn_stats.Rng

let trace_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* m = int_range 0 30 in
    let* seed = int in
    return (Util.random_trace (Rng.create seed) ~n ~m ~horizon:40))

let remove_edge_cases () =
  let trace = Util.random_trace (Rng.create 3) ~n:5 ~m:20 ~horizon:40 in
  let all = Transform.remove_random ~rng:(Rng.create 1) ~p:0. trace in
  Alcotest.(check int) "p=0 keeps all" (Trace.n_contacts trace) (Trace.n_contacts all);
  let none = Transform.remove_random ~rng:(Rng.create 1) ~p:1. trace in
  Alcotest.(check int) "p=1 drops all" 0 (Trace.n_contacts none)

let remove_statistical () =
  let trace = Util.random_trace (Rng.create 5) ~n:10 ~m:4000 ~horizon:1000 in
  let kept = Transform.remove_random ~rng:(Rng.create 2) ~p:0.7 trace in
  let frac = float_of_int (Trace.n_contacts kept) /. float_of_int (Trace.n_contacts trace) in
  Alcotest.(check bool) "~30% kept" true (Float.abs (frac -. 0.3) < 0.04)

let duration_partition =
  QCheck2.Test.make ~count:200 ~name:"keep_longer + keep_shorter partition the trace"
    trace_gen (fun trace ->
      let long = Transform.keep_longer_than 5. trace in
      let short = Transform.keep_shorter_than 5. trace in
      Trace.n_contacts long + Trace.n_contacts short = Trace.n_contacts trace
      && Trace.fold (fun acc c -> acc && Contact.duration c > 5.) true long
      && Trace.fold (fun acc c -> acc && Contact.duration c <= 5.) true short)

let window_clips =
  QCheck2.Test.make ~count:200 ~name:"time_window clips and keeps intersecting contacts"
    trace_gen (fun trace ->
      let t_start = 10. and t_end = 30. in
      let cropped = Transform.time_window ~t_start ~t_end trace in
      let expected =
        Trace.fold
          (fun acc (c : Contact.t) ->
            if c.t_end >= t_start && c.t_beg <= t_end then acc + 1 else acc)
          0 trace
      in
      Trace.n_contacts cropped = expected
      && Trace.fold
           (fun acc (c : Contact.t) -> acc && c.t_beg >= t_start && c.t_end <= t_end)
           true cropped)

let quantize_aligns =
  QCheck2.Test.make ~count:200 ~name:"quantize snaps outward onto the grid" trace_gen
    (fun trace ->
      let g = 3. in
      let snapped = Transform.quantize ~granularity:g trace in
      let t0 = Trace.t_start trace and t1 = Trace.t_end trace in
      let on_grid x = Float.abs (Float.rem (x -. t0) g) < 1e-6 || x = t1 in
      (* every snapped contact sits on the scan grid, inside the window *)
      Trace.n_contacts snapped = Trace.n_contacts trace
      && Trace.fold
           (fun acc (s : Contact.t) ->
             acc && s.t_beg >= t0 && s.t_end <= t1 && on_grid s.t_beg
             && (on_grid s.t_end || s.t_end = t1))
           true snapped
      (* and every original interval is covered by a snapped one of the
         same pair (snapping may reorder equal keys, so match by pair) *)
      && Trace.fold
           (fun acc (o : Contact.t) ->
             acc
             && List.exists
                  (fun (s : Contact.t) -> s.t_beg <= o.t_beg && s.t_end >= Float.min o.t_end t1)
                  (Trace.pair_contacts snapped o.a o.b))
           true trace)

let shift_translates =
  QCheck2.Test.make ~count:200 ~name:"shift translates window and contacts" trace_gen
    (fun trace ->
      let delta = 17.5 in
      let shifted = Transform.shift delta trace in
      Trace.t_start shifted = Trace.t_start trace +. delta
      && Array.for_all2
           (fun (o : Contact.t) (s : Contact.t) ->
             s.t_beg = o.t_beg +. delta && s.t_end = o.t_end +. delta && s.a = o.a && s.b = o.b)
           (Trace.contacts trace) (Trace.contacts shifted))

let merge_counts =
  QCheck2.Test.make ~count:200 ~name:"merge concatenates contact multisets"
    QCheck2.Gen.(pair trace_gen trace_gen)
    (fun (t1, t2) ->
      QCheck2.assume (Trace.n_nodes t1 = Trace.n_nodes t2);
      let merged = Transform.merge t1 t2 in
      Trace.n_contacts merged = Trace.n_contacts t1 + Trace.n_contacts t2)

let empty_trace_transforms () =
  let empty = Trace.create ~n_nodes:4 ~t_start:0. ~t_end:10. [] in
  let check name t =
    Alcotest.(check int) (name ^ ": no contacts") 0 (Trace.n_contacts t)
  in
  check "keep_longer" (Transform.keep_longer_than 1. empty);
  check "keep_shorter" (Transform.keep_shorter_than 1. empty);
  check "time_window" (Transform.time_window ~t_start:2. ~t_end:8. empty);
  check "quantize" (Transform.quantize ~granularity:2. empty);
  check "remove" (Transform.remove_random ~rng:(Rng.create 1) ~p:0.5 empty);
  let shifted = Transform.shift 5. empty in
  check "shift" shifted;
  Alcotest.(check (float 0.)) "shift moves empty window" 5. (Trace.t_start shifted);
  let restricted, back = Transform.restrict_nodes ~keep:(fun u -> u < 2) empty in
  check "restrict" restricted;
  Alcotest.(check int) "restrict keeps requested nodes" 2 (Trace.n_nodes restricted);
  Alcotest.(check (array int)) "back map" [| 0; 1 |] back;
  check "merge" (Transform.merge empty empty)

let single_contact_transforms () =
  let one = Util.trace_of_contacts ~n_nodes:3 ~t_start:0. ~t_end:10. [ (0, 2, 2., 6.) ] in
  Alcotest.(check int) "longer-than keeps it" 1
    (Trace.n_contacts (Transform.keep_longer_than 3.9 one));
  Alcotest.(check int) "longer-than drops it (duration not strict)" 0
    (Trace.n_contacts (Transform.keep_longer_than 4. one));
  (* clipping a window that straddles the contact *)
  let clipped = Transform.time_window ~t_start:4. ~t_end:10. one in
  Alcotest.(check int) "straddled contact kept" 1 (Trace.n_contacts clipped);
  let c = Trace.contact clipped 0 in
  Alcotest.(check (float 0.)) "clipped start" 4. c.t_beg;
  Alcotest.(check (float 0.)) "end untouched" 6. c.t_end;
  (* a window wholly before the contact empties the trace *)
  Alcotest.(check int) "disjoint window empties" 0
    (Trace.n_contacts (Transform.time_window ~t_start:0. ~t_end:1. one));
  (* dropping an endpoint node drops the contact *)
  let restricted, _ = Transform.restrict_nodes ~keep:(fun u -> u <> 2) one in
  Alcotest.(check int) "endpoint removal drops contact" 0 (Trace.n_contacts restricted)

(* Removal down to the empty trace must leave every downstream consumer
   (stats, journeys, delivery) well-defined, not crashing. *)
let removal_to_zero_downstream () =
  let trace = Util.random_trace (Rng.create 11) ~n:4 ~m:12 ~horizon:20 in
  let gutted = Transform.remove_random ~rng:(Rng.create 0) ~p:1. trace in
  Alcotest.(check int) "all contacts removed" 0 (Trace.n_contacts gutted);
  Alcotest.(check int) "window survives" (Trace.n_nodes trace) (Trace.n_nodes gutted);
  let s = Omn_temporal.Trace_stats.summary gutted in
  Alcotest.(check int) "summary works" 0 s.n_contacts;
  let frontiers, rounds = Omn_core.Journey.run gutted ~source:0 in
  Alcotest.(check int) "journey fixpoint immediately" 0 rounds;
  Array.iteri
    (fun v f ->
      if v = 0 then Alcotest.(check int) "identity at source" 1 (Omn_core.Frontier.size f)
      else begin
        Alcotest.(check bool) "no paths" true (Omn_core.Frontier.is_empty f);
        Alcotest.(check bool) "delivery infinite" true
          (Omn_core.Frontier.delivery f 0. = infinity)
      end)
    frontiers

let restrict_remaps () =
  let trace =
    Util.trace_of_contacts ~n_nodes:5 [ (0, 1, 0., 1.); (1, 3, 2., 3.); (2, 4, 4., 5.) ]
  in
  let restricted, back = Transform.restrict_nodes ~keep:(fun u -> u <> 2) trace in
  Alcotest.(check int) "nodes" 4 (Trace.n_nodes restricted);
  Alcotest.(check int) "contacts" 2 (Trace.n_contacts restricted);
  Alcotest.(check (array int)) "back map" [| 0; 1; 3; 4 |] back;
  (* contact (1,3) became (1,2) in the dense ids *)
  let c = Trace.contact restricted 1 in
  Alcotest.(check int) "remapped a" 1 c.a;
  Alcotest.(check int) "remapped b" 2 c.b

(* [omn transform --window T0:inf] used to write a trace no reader
   accepts, and [nan:nan] died in [Contact.make]: both now raise the
   typed Window error of [Trace.create]. *)
let window_nonfinite () =
  let trace = Util.random_trace (Rng.create 3) ~n:5 ~m:20 ~horizon:40 in
  List.iter
    (fun (label, t_start, t_end) ->
      match Transform.time_window ~t_start ~t_end trace with
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S is the typed window error" label msg)
          true
          (Util.contains_substring msg "[E-WINDOW]")
      | _ -> Alcotest.failf "%s: non-finite window accepted" label)
    [ ("T0:inf", 10., infinity); ("-inf:T1", neg_infinity, 30.); ("nan:nan", nan, nan) ]

(* [omn transform --min-duration nan] used to exit 0 with a 0-contact
   trace: [duration > nan] is false for every contact. A NaN threshold
   is refused as [remove_random] refuses a bad [p]; an infinite one
   keeps every contact or none. *)
let duration_thresholds () =
  let trace = Util.random_trace (Rng.create 3) ~n:5 ~m:20 ~horizon:40 in
  let m = Trace.n_contacts trace in
  List.iter
    (fun (label, keep) ->
      match keep nan trace with
      | exception Invalid_argument msg ->
        Alcotest.(check string) (label ^ " message") ("Transform." ^ label ^ ": NaN threshold") msg
      | t -> Alcotest.failf "%s nan accepted (%d contacts kept)" label (Trace.n_contacts t))
    [ ("keep_longer_than", Transform.keep_longer_than);
      ("keep_shorter_than", Transform.keep_shorter_than) ];
  let count keep threshold = Trace.n_contacts (keep threshold trace) in
  Alcotest.(check int) "longer than -inf: all" m (count Transform.keep_longer_than neg_infinity);
  Alcotest.(check int) "longer than inf: none" 0 (count Transform.keep_longer_than infinity);
  Alcotest.(check int) "shorter than inf: all" m (count Transform.keep_shorter_than infinity);
  Alcotest.(check int) "shorter than -inf: none" 0
    (count Transform.keep_shorter_than neg_infinity)

let suite =
  [
    Alcotest.test_case "remove p=0 / p=1" `Quick remove_edge_cases;
    Alcotest.test_case "remove statistics" `Slow remove_statistical;
    Alcotest.test_case "restrict_nodes remaps" `Quick restrict_remaps;
    Alcotest.test_case "transforms on the empty trace" `Quick empty_trace_transforms;
    Alcotest.test_case "transforms on a single contact" `Quick single_contact_transforms;
    Alcotest.test_case "removal to zero stays well-defined" `Quick removal_to_zero_downstream;
    Alcotest.test_case "time_window: non-finite window is a typed error" `Quick window_nonfinite;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ duration_partition; window_clips; quantize_aligns; shift_translates; merge_counts ]
  @ [ Alcotest.test_case "duration filters: NaN refused, +-inf keep all or none" `Quick
        duration_thresholds ]
