(* Statistical pin of the sampled (1-eps)-diameter estimator.

   Three layers of evidence, all deterministic (seeded; a failure
   prints the seeds to replay):

   - {e exactness}: with the sample covering every source, the
     estimator must reproduce [Diameter.measure] bit-for-bit — curves,
     diameter, zero-width CI — across ~100 instances of the four
     generator families;
   - {e coverage}: across >= 200 seeded instances, the reported CI must
     contain the exact (1-eps)-diameter at at least the nominal rate.
     The test checks its own power by mutation: re-running with
     [set_perturb] shifting every derived diameter must collapse the
     coverage, proving the assertion would catch a biased estimator;
   - {e mechanics}: typed Usage rejections for every bad parameter,
     budget truncation ([partial = true] after at least one round), and
     killed-and-resumed runs bit-identical to uninterrupted ones. *)

module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Diameter = Omn_core.Diameter
module Est = Omn_core.Diameter_est
module Err = Omn_robust.Err

let epsilon = 0.05
let max_hops = 4
let grid = Omn_stats.Grid.logarithmic ~lo:1. ~hi:50. ~n:25

let cap_contacts max_contacts trace =
  let cs = Trace.contacts trace in
  if Array.length cs <= max_contacts then trace
  else
    Trace.create ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
      ~t_start:(Trace.t_start trace) ~t_end:(Trace.t_end trace)
      (Array.to_list (Array.sub cs 0 max_contacts))

let instance seed =
  let rng = Rng.create seed in
  match seed mod 4 with
  | 0 -> Util.random_trace rng ~n:(4 + Rng.int rng 4) ~m:(8 + Rng.int rng 16) ~horizon:20
  | 1 ->
    cap_contacts 40
      (Omn_randnet.Continuous.generate rng
         { n = 4 + Rng.int rng 4; lambda = 0.5; horizon = 12. })
  | 2 ->
    cap_contacts 40
      (Omn_mobility.Random_waypoint.generate rng
         {
           n = 5;
           area = 120.;
           v_min = 0.5;
           v_max = 1.5;
           mean_pause = 10.;
           range = 40.;
           horizon = 300.;
           dt = 5.;
         })
  | _ ->
    let n = 5 in
    let params = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.1 in
    cap_contacts 40 (Omn_mobility.Venue.generate rng ~n ~name:"sample-venue" params)

let get = function
  | Ok e -> e
  | Error e -> Alcotest.failf "estimate failed: %a" Err.pp e

(* --- exactness: sample = all sources is the exact engine --- *)

let test_exhaustive_identity () =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun seed ->
      let trace = instance seed in
      let exact = Diameter.measure ~epsilon ~max_hops ~grid trace in
      let est =
        get
          (Est.estimate ~epsilon ~max_hops ~grid ~sample:(Trace.n_nodes trace) ~seed trace)
      in
      if not est.Est.exhaustive then err "seed %d: not exhaustive" seed;
      if est.Est.diameter <> exact.Diameter.diameter then
        err "seed %d: diameter mismatch" seed;
      (* structural equality on the curves record is float-bit equality *)
      if est.Est.curves <> exact.Diameter.curves then err "seed %d: curves differ" seed;
      if est.Est.ci_lo <> exact.Diameter.diameter || est.Est.ci_hi <> exact.Diameter.diameter
      then err "seed %d: exhaustive CI is not the point" seed;
      if est.Est.ci_width <> 0. then err "seed %d: exhaustive CI width %g" seed est.Est.ci_width)
    (List.init 100 (fun i -> 9000 + i));
  match !errs with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d identity failure(s) across 100 instances; first: %s"
      (List.length !errs) first

(* --- statistical coverage, mutation-checked --- *)

let n_coverage = 200
let confidence = 0.8

let to_sent = function Some k -> k | None -> max_hops + 1

(* One coverage experiment: does the CI of a 3-source sample of this
   instance contain the exact all-sources diameter? *)
let covered seed =
  let trace = instance seed in
  let exact = to_sent (Diameter.measure ~epsilon ~max_hops ~grid trace).Diameter.diameter in
  let est =
    get
      (Est.estimate ~epsilon ~max_hops ~grid ~sample:3 ~seed ~ci_width:10. ~confidence
         ~bootstrap:60 trace)
  in
  let lo = to_sent est.Est.ci_lo and hi = to_sent est.Est.ci_hi in
  (lo <= exact && exact <= hi, seed)

let coverage_rate () =
  let results = List.map covered (List.init n_coverage (fun i -> 9500 + i)) in
  let missed = List.filter_map (fun (ok, seed) -> if ok then None else Some seed) results in
  (float_of_int (n_coverage - List.length missed) /. float_of_int n_coverage, missed)

let test_coverage () =
  let rate, missed = coverage_rate () in
  if rate < confidence then
    Alcotest.failf "CI coverage %.3f below nominal %.2f; missed seeds: %s" rate confidence
      (String.concat ", " (List.map string_of_int missed))

let test_coverage_mutation () =
  (* A broken estimator that biases every derived diameter by +2 hops
     must be caught by the coverage assertion — otherwise the coverage
     test has no power and proves nothing. *)
  let shift = function Some k -> Some (k + 2) | None -> Some (max_hops + 3) in
  Omn_core.Driver.set_perturb (Some shift);
  let rate, _ =
    Fun.protect ~finally:(fun () -> Omn_core.Driver.set_perturb None) coverage_rate
  in
  if rate >= confidence then
    Alcotest.failf
      "mutated estimator still passes coverage (%.3f >= %.2f): the assertion has no power"
      rate confidence

(* --- typed rejections --- *)

let test_rejections () =
  let trace = instance 9100 in
  let expect_usage label result =
    match result with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error (e : Err.t) ->
      if e.Err.code <> Err.Usage then Alcotest.failf "%s: wrong code: %a" label Err.pp e
  in
  expect_usage "sample 0" (Est.estimate ~sample:0 trace);
  expect_usage "sample -3" (Est.estimate ~sample:(-3) trace);
  expect_usage "ci_width 0" (Est.estimate ~sample:2 ~ci_width:0. trace);
  expect_usage "ci_width < 0" (Est.estimate ~sample:2 ~ci_width:(-1.) trace);
  expect_usage "epsilon 0" (Est.estimate ~sample:2 ~epsilon:0. trace);
  expect_usage "epsilon 1" (Est.estimate ~sample:2 ~epsilon:1. trace);
  expect_usage "epsilon 1.5" (Est.estimate ~sample:2 ~epsilon:1.5 trace);
  expect_usage "confidence 0" (Est.estimate ~sample:2 ~confidence:0. trace);
  expect_usage "confidence 1" (Est.estimate ~sample:2 ~confidence:1. trace);
  expect_usage "bootstrap 0" (Est.estimate ~sample:2 ~bootstrap:0 trace);
  expect_usage "max_hops 0" (Est.estimate ~sample:2 ~max_hops:0 trace);
  expect_usage "negative budget" (Est.estimate ~sample:2 ~budget_seconds:(-1.) trace);
  expect_usage "empty windows" (Est.estimate ~sample:2 ~windows:[] trace);
  expect_usage "reversed window" (Est.estimate ~sample:2 ~windows:[ (5., 1.) ] trace);
  expect_usage "empty sources" (Est.estimate ~sample:2 ~sources:[] trace);
  expect_usage "source out of range" (Est.estimate ~sample:2 ~sources:[ 0; 999 ] trace);
  expect_usage "destination out of range" (Est.estimate ~sample:2 ~dests:[ 999 ] trace)

(* --- budget truncation --- *)

(* A perturbation with internal state makes successive derived
   diameters differ, so the bootstrap CI never reaches zero width and
   the width target below is unreachable — the only way out is the
   budget. *)
let jitter () =
  let c = ref 0 in
  fun d ->
    incr c;
    Some (to_sent d + (!c mod 2))

let test_budget_partial () =
  let trace = Util.random_trace (Rng.create 77) ~n:10 ~m:40 ~horizon:20 in
  Omn_core.Driver.set_perturb (Some (jitter ()));
  Fun.protect ~finally:(fun () -> Omn_core.Driver.set_perturb None) @@ fun () ->
  let c = ref 0. in
  let clock () =
    c := !c +. 1.;
    !c
  in
  let est =
    get
      (Est.estimate ~epsilon ~max_hops ~grid ~sample:2 ~ci_width:0.001 ~bootstrap:20
         ~budget_seconds:0. ~clock trace)
  in
  Alcotest.(check bool) "partial" true est.Est.partial;
  Alcotest.(check int) "one round" 1 est.Est.rounds;
  Alcotest.(check int) "sampled 2" 2 est.Est.sampled;
  Alcotest.(check bool) "not exhaustive" false est.Est.exhaustive

(* --- checkpoint / resume determinism --- *)

let same_estimate a b =
  a.Est.diameter = b.Est.diameter && a.Est.curves = b.Est.curves && a.Est.ci_lo = b.Est.ci_lo
  && a.Est.ci_hi = b.Est.ci_hi && a.Est.ci_width = b.Est.ci_width
  && a.Est.sampled = b.Est.sampled && a.Est.rounds = b.Est.rounds
  && a.Est.exhaustive = b.Est.exhaustive

let test_resume_identity () =
  (* Seed picked so the reference run needs several doubling rounds and
     only converges on exhaustion (round-1 bootstrap width > target). *)
  let trace = Util.random_trace (Rng.create 60) ~n:12 ~m:50 ~horizon:20 in
  let params f =
    f ~epsilon ~max_hops ~grid ~sample:2 ~seed:3 ~ci_width:0.001 ~bootstrap:30 trace
  in
  (* Uninterrupted reference: an unreachable width target, so the run
     tightens all the way to exhaustive (where width 0 converges). *)
  let fresh = get (params (fun ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap t ->
    Est.estimate ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap t))
  in
  Alcotest.(check bool) "reference is exhaustive" true fresh.Est.exhaustive;
  Alcotest.(check bool) "reference took several rounds" true (fresh.Est.rounds > 1);
  let ckpt = Filename.temp_file "omn_est" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Omn_robust.Checkpoint.remove ckpt)
    (fun () ->
      (* Interrupt after the first round (fake clock expires a zero
         budget), then resume without one. *)
      let c = ref 0. in
      let clock () =
        c := !c +. 1.;
        !c
      in
      let truncated =
        get
          (params (fun ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap t ->
               Est.estimate ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap
                 ~checkpoint:ckpt ~budget_seconds:0. ~clock t))
      in
      Alcotest.(check bool) "interrupted run is partial" true truncated.Est.partial;
      let resumed =
        get
          (params (fun ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap t ->
               Est.estimate ~epsilon ~max_hops ~grid ~sample ~seed ~ci_width ~bootstrap
                 ~checkpoint:ckpt ~resume:true t))
      in
      if not (same_estimate fresh resumed) then
        Alcotest.failf
          "resumed run differs from uninterrupted run (rounds %d vs %d, sampled %d vs %d)"
          resumed.Est.rounds fresh.Est.rounds resumed.Est.sampled fresh.Est.sampled)

let suite =
  [
    Alcotest.test_case "typed Usage rejections" `Quick test_rejections;
    Alcotest.test_case "budget truncation: partial after one round" `Quick test_budget_partial;
    Alcotest.test_case "killed-and-resumed = uninterrupted" `Quick test_resume_identity;
    Alcotest.test_case "sample=all is bit-identical to the exact engine (100 instances)" `Slow
      test_exhaustive_identity;
    Alcotest.test_case "CI coverage >= nominal (200 instances)" `Slow test_coverage;
    Alcotest.test_case "coverage assertion has power (mutation check)" `Slow
      test_coverage_mutation;
  ]
