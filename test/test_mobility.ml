open Omn_mobility
module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

(* --- Duration --- *)

let duration_positive =
  QCheck2.Test.make ~count:500 ~name:"durations strictly positive" QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun model -> Duration.sample rng model > 0.)
        [
          Duration.exponential ~mean:30.; Duration.log_normal ~median:100. ~sigma:1.;
          Duration.pareto ~alpha:1.5 ~x_min:10.; Duration.constant 5.; Duration.conference;
          Duration.campus;
        ])

let duration_constant () =
  let rng = Rng.create 1 in
  Util.check_float "constant" 42. (Duration.sample rng (Duration.constant 42.))

let duration_validation () =
  let expect_invalid name f =
    match f () with exception Invalid_argument _ -> () | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "exp mean 0" (fun () -> Duration.exponential ~mean:0.);
  expect_invalid "empty mixture" (fun () -> Duration.mixture []);
  expect_invalid "negative weight" (fun () ->
      Duration.mixture [ (-1., Duration.constant 1.) ]);
  (* the generators' time parameters: NaN and +inf are rejected, never
     looped on *)
  List.iter
    (fun x ->
      expect_invalid (Printf.sprintf "venue window end %g" x) (fun () ->
          let rng = Rng.create 1 in
          let p = Venue.conference_params ~rng ~n:4 ~days:0.1 in
          Venue.generate rng ~n:4 ~name:"v" { p with Venue.t_end = x });
      expect_invalid (Printf.sprintf "waypoint horizon %g" x) (fun () ->
          Random_waypoint.generate (Rng.create 1)
            { Random_waypoint.default with n = 4; horizon = x }))
    [ Float.nan; infinity ]

let duration_exponential_mean () =
  let rng = Rng.create 2 in
  let model = Duration.exponential ~mean:80. in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Duration.sample rng model
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 80" true (Float.abs (mean -. 80.) < 3.)

(* --- Diurnal --- *)

let diurnal_day_night () =
  let profile = Diurnal.day_night ~night_level:0.1 () in
  Util.check_float "noon" 1. (profile (12. *. 3600.));
  Util.check_float "3am" 0.1 (profile (3. *. 3600.));
  Util.check_float "next day" 1. (profile (86400. +. (12. *. 3600.)))

let diurnal_weekly () =
  let profile = Diurnal.weekly ~weekend_level:0.5 (Diurnal.constant 1.) in
  Util.check_float "monday" 1. (profile 0.);
  Util.check_float "saturday" 0.5 (profile (5.5 *. 86400.));
  Util.check_float "next monday" 1. (profile (7.2 *. 86400.))

let diurnal_max () =
  let profile = Diurnal.conference_sessions () in
  let m = Diurnal.max_over_day profile in
  Alcotest.(check bool) "max in (0, 1]" true (0.9 <= m && m <= 1.)

let diurnal_validation () =
  match Diurnal.constant 1.5 with
  | exception Invalid_argument _ -> ()
  | (_ : Diurnal.t) -> Alcotest.fail "level > 1 accepted"

(* --- Community --- *)

let community_planted () =
  let rng = Rng.create 3 in
  let c = Community.planted ~rng ~n:12 ~n_communities:3 ~within_rate:2. ~across_rate:0.1 in
  Alcotest.(check int) "n" 12 (Community.n c);
  Util.check_float "diagonal" 0. (Community.pair_rate c 4 4);
  for i = 0 to 11 do
    for j = 0 to 11 do
      if i <> j then begin
        let rate = Community.pair_rate c i j in
        Util.check_float "symmetric" rate (Community.pair_rate c j i);
        let same = Community.community_of c i = Community.community_of c j in
        Util.check_float "block rate" (if same then 2. else 0.1) rate
      end
    done
  done

let community_heterogeneous () =
  let rng = Rng.create 4 in
  let base = Community.uniform ~n:10 ~rate:1. in
  let het = Community.heterogeneous ~rng ~base ~sociability_sigma:0.5 in
  let max_rate = Community.max_rate het in
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j then
        Alcotest.(check bool) "within max" true (Community.pair_rate het i j <= max_rate +. 1e-9)
    done
  done

(* --- Gen --- *)

let gen_structure =
  QCheck2.Test.make ~count:60 ~name:"generated contacts live in the window" QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let spec =
        {
          Gen.name = "test";
          community = Community.uniform ~n:8 ~rate:(4. /. 86400.);
          modulation = Diurnal.day_night ~night_level:0.2 ();
          duration = Duration.exponential ~mean:120.;
          t_start = 0.;
          t_end = 86400.;
        }
      in
      let trace = Gen.generate rng spec in
      Trace.n_nodes trace = 8
      && Trace.fold
           (fun acc (c : Contact.t) -> acc && c.t_beg >= 0. && c.t_end <= 86400.)
           true trace)

let gen_volume_matches_expectation () =
  let rng = Rng.create 5 in
  let spec =
    {
      Gen.name = "test";
      community = Community.uniform ~n:10 ~rate:(6. /. 86400.);
      modulation = Diurnal.day_night ~night_level:0.3 ();
      duration = Duration.constant 60.;
      t_start = 0.;
      t_end = 3. *. 86400.;
    }
  in
  let expected = Gen.expected_contacts spec in
  let runs = 20 in
  let total = ref 0 in
  for _ = 1 to runs do
    total := !total + Trace.n_contacts (Gen.generate (Rng.split rng) spec)
  done;
  let mean = float_of_int !total /. float_of_int runs in
  let sigma = sqrt (expected /. float_of_int runs) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f vs expected %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < (6. *. sigma) +. 2.)

(* --- Venue --- *)

let venue_params n = Venue.conference_params ~rng:(Rng.create 1) ~n ~days:1.

let venue_structure =
  QCheck2.Test.make ~count:15 ~name:"venue traces structurally valid" QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 12 in
      let { Venue.near; far } = Venue.generate_classified rng ~n ~name:"t" (venue_params n) in
      let valid trace =
        Trace.n_nodes trace = n
        && Trace.fold
             (fun acc (c : Contact.t) ->
               acc && c.t_beg >= 0. && c.t_end <= 86400. && Contact.duration c >= 5.)
             true trace
      in
      valid near && valid far)

let venue_deterministic () =
  let gen () = Venue.generate (Rng.create 9) ~n:10 ~name:"t" (venue_params 10) in
  let t1 = gen () and t2 = gen () in
  Alcotest.(check int) "same size" (Trace.n_contacts t1) (Trace.n_contacts t2);
  Alcotest.(check bool) "same contacts" true
    (Array.for_all2 Contact.equal (Trace.contacts t1) (Trace.contacts t2))

let venue_nights_isolate () =
  (* During 0-7:30 everyone is at the hotel; only roommates (same room)
     can be in contact, so contacts overlapping 3am involve room pairs
     (node/2 equal). *)
  let n = 10 in
  let trace = Venue.generate (Rng.create 11) ~n ~name:"t" (venue_params n) in
  Trace.iter
    (fun (c : Contact.t) ->
      let night = c.t_beg < 6. *. 3600. in
      if night && Contact.duration c > 3600. then
        Alcotest.(check int) "roommates" (c.a / 2) (c.b / 2))
    trace

let venue_campus_groups () =
  let rng = Rng.create 12 in
  let params = Venue.campus_params ~rng ~n:20 ~n_groups:4 ~weeks:1 in
  let trace = Venue.generate rng ~n:20 ~name:"campus" params in
  Alcotest.(check bool) "has contacts" true (Trace.n_contacts trace > 0);
  Alcotest.(check int) "nodes" 20 (Trace.n_nodes trace)

(* --- Scanner --- *)

let scanner_grid_alignment =
  QCheck2.Test.make ~count:100 ~name:"detected contacts are slot-aligned" QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let ground = Util.random_trace rng ~n:6 ~m:30 ~horizon:2000 in
      let g = 120. in
      let detected = Scanner.detect rng { Scanner.granularity = g; detection_prob = 0.8 } ground in
      Trace.fold
        (fun acc (c : Contact.t) ->
          let aligned x = Float.abs (Float.rem x g) < 1e-6 in
          acc && aligned c.t_beg
          && (aligned c.t_end || c.t_end = Trace.t_end ground)
          && Contact.duration c >= 0.)
        true detected)

let scanner_p1_coverage () =
  (* With perfect detection, a contact covering k scans becomes one
     detected contact; contacts between scans vanish. *)
  let ground =
    Util.trace_of_contacts ~t_end:1000. [ (0, 1, 110., 130.); (0, 1, 130.5, 199.5); (2, 3, 50., 450.) ]
  in
  let rng = Rng.create 1 in
  let detected =
    Scanner.detect rng { Scanner.granularity = 100.; detection_prob = 1.0 } ground
  in
  (* Scans fall at 0, 100, 200, ...: both (0,1) episodes sit between scans
     and vanish; (2,3) covers scans 100..400. *)
  Alcotest.(check int) "one detected" 1 (Trace.n_contacts detected);
  let c = Trace.contact detected 0 in
  Alcotest.(check int) "pair a" 2 c.a;
  Util.check_float "start" 100. c.t_beg;
  Util.check_float "end" 500. c.t_end

let scanner_mixture_validation () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 10.) ] in
  match
    Scanner.detect_mixture (Rng.create 1) ~granularity:10. ~qualities:[] trace
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty mixture accepted"

let scanner_fragmentation () =
  (* Low per-scan detection fragments a long contact into several short
     detected ones whose union stays within the original slots. *)
  let ground = Util.trace_of_contacts ~t_end:10000. [ (0, 1, 0., 10000.) ] in
  let rng = Rng.create 2 in
  let detected =
    Scanner.detect rng { Scanner.granularity = 100.; detection_prob = 0.4 } ground
  in
  Alcotest.(check bool) "fragments" true (Trace.n_contacts detected > 5);
  Trace.iter
    (fun (c : Contact.t) -> Alcotest.(check bool) "short pieces" true (Contact.duration c < 5000.))
    detected

(* --- Random waypoint --- *)

let waypoint_consistency () =
  let params = { Random_waypoint.default with n = 8; horizon = 600.; dt = 1. } in
  let trace = Random_waypoint.generate (Rng.create 21) params in
  let times = [| 100.; 300.; 500. |] in
  let positions = Random_waypoint.positions_at (Rng.create 21) params ~times in
  (* Same seed => same trajectories: any pair in contact at a sampled time
     must be within range there. *)
  Array.iteri
    (fun k time ->
      Trace.iter
        (fun (c : Contact.t) ->
          if c.t_beg <= time && time <= c.t_end then begin
            let xa, ya = positions.(k).(c.a) and xb, yb = positions.(k).(c.b) in
            let dist = Float.hypot (xa -. xb) (ya -. yb) in
            Alcotest.(check bool)
              (Printf.sprintf "pair %d-%d in range at %g (dist %.1f)" c.a c.b time dist)
              true
              (dist <= params.range +. 1e-6)
          end)
        trace)
    times

let waypoint_bounds () =
  let params = { Random_waypoint.default with n = 5; horizon = 300. } in
  let positions =
    Random_waypoint.positions_at (Rng.create 22) params ~times:[| 0.; 150.; 300. |]
  in
  Array.iter
    (Array.iter (fun (x, y) ->
         Alcotest.(check bool) "inside area" true
           (0. <= x && x <= params.area && 0. <= y && y <= params.area)))
    positions

(* --- External --- *)

let external_structure () =
  let internal = Util.trace_of_contacts ~n_nodes:5 ~t_end:86400. [ (0, 1, 0., 10.) ] in
  let rng = Rng.create 23 in
  let combined =
    External.add rng
      {
        External.n_external = 50;
        sightings_per_internal_per_day = 20.;
        duration = Duration.constant 60.;
        zipf_exponent = 1.;
      }
      internal
  in
  Alcotest.(check int) "node universe" 55 (Trace.n_nodes combined);
  Alcotest.(check bool) "sightings added" true (Trace.n_contacts combined > 10);
  Trace.iter
    (fun (c : Contact.t) ->
      (* no external-external contacts: the lower endpoint is internal *)
      Alcotest.(check bool) "one endpoint internal" true (c.a < 5))
    combined

(* --- Presets (smoke, tiny sizes) --- *)

let presets_smoke () =
  let check (info : Presets.info) =
    Alcotest.(check bool) "nonempty" true (Trace.n_contacts info.trace > 0);
    Alcotest.(check bool) "internal nodes bounded" true
      (info.internal_nodes <= Trace.n_nodes info.trace)
  in
  check (Presets.infocom05 ~days:0.5 ());
  check (Presets.hong_kong ~days:1. ());
  check (Presets.reality_mining ~weeks:1 ())

let suite =
  [
    Alcotest.test_case "constant duration" `Quick duration_constant;
    Alcotest.test_case "duration validation" `Quick duration_validation;
    Alcotest.test_case "exponential duration mean" `Slow duration_exponential_mean;
    Alcotest.test_case "day/night profile" `Quick diurnal_day_night;
    Alcotest.test_case "weekly profile" `Quick diurnal_weekly;
    Alcotest.test_case "profile maximum" `Quick diurnal_max;
    Alcotest.test_case "profile validation" `Quick diurnal_validation;
    Alcotest.test_case "planted communities" `Quick community_planted;
    Alcotest.test_case "heterogeneous rates bounded" `Quick community_heterogeneous;
    Alcotest.test_case "generator volume" `Slow gen_volume_matches_expectation;
    Alcotest.test_case "venue determinism" `Quick venue_deterministic;
    Alcotest.test_case "venue nights isolate" `Quick venue_nights_isolate;
    Alcotest.test_case "venue campus smoke" `Quick venue_campus_groups;
    Alcotest.test_case "scanner full detection" `Quick scanner_p1_coverage;
    Alcotest.test_case "scanner mixture validation" `Quick scanner_mixture_validation;
    Alcotest.test_case "scanner fragmentation" `Quick scanner_fragmentation;
    Alcotest.test_case "waypoint/trace consistency" `Slow waypoint_consistency;
    Alcotest.test_case "waypoint stays in area" `Quick waypoint_bounds;
    Alcotest.test_case "external sightings" `Quick external_structure;
    Alcotest.test_case "presets smoke" `Slow presets_smoke;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ duration_positive; gen_structure; venue_structure; scanner_grid_alignment ]
