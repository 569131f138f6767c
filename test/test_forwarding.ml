open Omn_forwarding
module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace

let trace_gen =
  QCheck2.Gen.(
    let* n = int_range 3 7 in
    let* m = int_range 2 25 in
    let* seed = int in
    return (Util.random_trace (Rng.create seed) ~n ~m ~horizon:40))

(* Epidemic is exact: its delivery time equals the earliest arrival of a
   TTL-bounded time-respecting path (Bellman-Ford gold standard). *)
let epidemic_matches_bounded_dijkstra =
  QCheck2.Test.make ~count:150 ~name:"epidemic(ttl) = bounded earliest arrival"
    QCheck2.Gen.(triple trace_gen (int_range 1 4) (float_range 0. 30.))
    (fun (trace, ttl, t0) ->
      let n = Trace.n_nodes trace in
      let rows = Omn_baseline.Dijkstra.earliest_arrival_bounded trace ~source:0 ~t0 ~max_hops:ttl in
      let ok = ref true in
      for dest = 1 to n - 1 do
        let o =
          Sim.run trace ~protocol:(Protocol.Epidemic { ttl = Some ttl }) ~source:0 ~dest ~t0
            ~deadline:100.
        in
        let expected = rows.(ttl).(dest) -. t0 in
        let expected = if expected > 100. then infinity else expected in
        if o.delay <> expected then ok := false;
        if o.delivered && o.hops > ttl then ok := false
      done;
      !ok)

let epidemic_unlimited_matches_dijkstra =
  QCheck2.Test.make ~count:150 ~name:"epidemic(unlimited) = earliest arrival"
    QCheck2.Gen.(pair trace_gen (float_range 0. 30.))
    (fun (trace, t0) ->
      let n = Trace.n_nodes trace in
      let arrival = Omn_baseline.Dijkstra.earliest_arrival trace ~source:0 ~t0 in
      let ok = ref true in
      for dest = 1 to n - 1 do
        let o =
          Sim.run trace ~protocol:(Protocol.Epidemic { ttl = None }) ~source:0 ~dest ~t0
            ~deadline:200.
        in
        let expected = arrival.(dest) -. t0 in
        let expected = if expected > 200. then infinity else expected in
        if o.delay <> expected then ok := false
      done;
      !ok)

(* Protocol dominance: wider TTL never hurts; epidemic dominates every
   other protocol's delay. *)
let ttl_monotone =
  QCheck2.Test.make ~count:100 ~name:"delay non-increasing in TTL"
    QCheck2.Gen.(pair trace_gen (float_range 0. 30.))
    (fun (trace, t0) ->
      let delay ttl =
        (Sim.run trace ~protocol:(Protocol.Epidemic { ttl = Some ttl }) ~source:0 ~dest:1 ~t0
           ~deadline:100.)
          .delay
      in
      delay 1 >= delay 2 && delay 2 >= delay 4)

let epidemic_dominates =
  QCheck2.Test.make ~count:100 ~name:"epidemic delivers no later than any protocol"
    QCheck2.Gen.(pair trace_gen (float_range 0. 30.))
    (fun (trace, t0) ->
      let flood =
        Sim.run trace ~protocol:(Protocol.Epidemic { ttl = None }) ~source:0 ~dest:1 ~t0
          ~deadline:100.
      in
      List.for_all
        (fun protocol ->
          let o = Sim.run trace ~protocol ~source:0 ~dest:1 ~t0 ~deadline:100. in
          flood.delay <= o.delay)
        [
          Protocol.Direct; Protocol.Two_hop; Protocol.Spray_and_wait { copies = 4 };
          Protocol.First_contact; Protocol.Last_encounter;
        ])

(* Structural invariants across protocols. *)
let outcomes_sane =
  QCheck2.Test.make ~count:100 ~name:"outcome invariants (hops/copies/transmissions)"
    QCheck2.Gen.(pair trace_gen (float_range 0. 30.))
    (fun (trace, t0) ->
      let n = Trace.n_nodes trace in
      List.for_all
        (fun protocol ->
          let o = Sim.run trace ~protocol ~source:0 ~dest:1 ~t0 ~deadline:100. in
          o.nodes_reached >= 1
          && o.nodes_reached <= n
          && o.transmissions >= o.nodes_reached - 1
          && (match (o.delivered, Protocol.hop_bound protocol) with
             | true, Some bound -> o.hops <= bound
             | _ -> true)
          && ((not o.delivered) || o.delay >= 0.))
        [
          Protocol.Epidemic { ttl = None }; Protocol.Epidemic { ttl = Some 2 }; Protocol.Direct;
          Protocol.Two_hop; Protocol.Spray_and_wait { copies = 5 }; Protocol.First_contact;
          Protocol.Last_encounter;
        ])

(* Hand-built scenarios. *)
let direct_only_src_dst () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.); (1, 2, 5., 6.) ] in
  let o = Sim.run trace ~protocol:Protocol.Direct ~source:0 ~dest:2 ~t0:0. ~deadline:50. in
  Alcotest.(check bool) "relaying disabled" false o.delivered;
  let o2 = Sim.run trace ~protocol:(Protocol.Epidemic { ttl = None }) ~source:0 ~dest:2 ~t0:0. ~deadline:50. in
  Alcotest.(check bool) "epidemic relays" true o2.delivered;
  Util.check_float "delay" 5. o2.delay

let two_hop_limits () =
  (* Chain 0-1-2-3 in time order: two-hop cannot span three relays. *)
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.); (1, 2, 2., 3.); (2, 3, 4., 5.) ] in
  let o = Sim.run trace ~protocol:Protocol.Two_hop ~source:0 ~dest:3 ~t0:0. ~deadline:50. in
  Alcotest.(check bool) "3 hops needed, two-hop fails" false o.delivered;
  let o2 = Sim.run trace ~protocol:Protocol.Two_hop ~source:0 ~dest:2 ~t0:0. ~deadline:50. in
  Alcotest.(check bool) "2 hops ok" true o2.delivered

let spray_budget () =
  (* Source with 2 copies: one handover, then wait. *)
  let trace =
    Util.trace_of_contacts [ (0, 1, 0., 1.); (0, 2, 2., 3.); (1, 3, 4., 5.); (2, 3, 6., 7.) ]
  in
  let o =
    Sim.run trace ~protocol:(Protocol.Spray_and_wait { copies = 2 }) ~source:0 ~dest:3 ~t0:0.
      ~deadline:50.
  in
  (* 0 gives a copy to 1 (spending half the budget), keeps one copy so it
     cannot spray 2; 1 waits and meets 3 at t=4. *)
  Alcotest.(check bool) "delivered" true o.delivered;
  Util.check_float "via first relay" 4. o.delay;
  Alcotest.(check int) "nodes reached" 3 o.nodes_reached

let last_encounter_greedy () =
  (* dest = 2. Node 1 met 2 recently; node 3 never did. The copy must
     refuse 3 and ride 1. *)
  let trace =
    Util.trace_of_contacts
      [
        (1, 2, 0., 1.);   (* 1 meets the destination early *)
        (0, 3, 5., 6.);   (* 0 meets 3: no recency, refuse *)
        (0, 1, 8., 9.);   (* 0 meets 1: forward *)
        (3, 2, 20., 21.); (* 3 could have delivered sooner... *)
        (1, 2, 30., 31.); (* ...but the copy sits with 1 until here *)
      ]
  in
  let o =
    Sim.run trace ~protocol:Protocol.Last_encounter ~source:0 ~dest:2 ~t0:2. ~deadline:50.
  in
  Alcotest.(check bool) "delivered" true o.delivered;
  Util.check_float "via node 1 at t=30" 28. o.delay;
  Alcotest.(check int) "two hops" 2 o.hops

let last_encounter_uses_history () =
  (* Encounters before the message creation time still inform routing. *)
  let trace = Util.trace_of_contacts [ (1, 2, 0., 1.); (0, 1, 10., 11.); (1, 2, 15., 16.) ] in
  let o =
    Sim.run trace ~protocol:Protocol.Last_encounter ~source:0 ~dest:2 ~t0:9. ~deadline:50.
  in
  Alcotest.(check bool) "delivered" true o.delivered;
  Util.check_float "delay" 6. o.delay

let validation () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.) ] in
  let expect_invalid name f =
    match f () with exception Invalid_argument _ -> () | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "source = dest" (fun () ->
      Sim.run trace ~protocol:Protocol.Direct ~source:0 ~dest:0 ~t0:0. ~deadline:1.);
  expect_invalid "negative deadline" (fun () ->
      Sim.run trace ~protocol:Protocol.Direct ~source:0 ~dest:1 ~t0:0. ~deadline:(-1.));
  expect_invalid "zero copies" (fun () ->
      Sim.run trace ~protocol:(Protocol.Spray_and_wait { copies = 0 }) ~source:0 ~dest:1 ~t0:0.
        ~deadline:1.)

let evaluate_shapes () =
  let trace = Util.random_trace (Rng.create 77) ~n:8 ~m:60 ~horizon:100 in
  let stats =
    Sim.evaluate (Rng.create 1) trace
      ~protocols:[ Protocol.Epidemic { ttl = None }; Protocol.Direct ]
      ~messages:50 ~deadline:60.
  in
  match stats with
  | [ epidemic; direct ] ->
    Alcotest.(check bool) "epidemic >= direct delivery" true
      (epidemic.delivered_ratio >= direct.delivered_ratio);
    Alcotest.(check int) "messages recorded" 50 epidemic.messages
  | _ -> Alcotest.fail "expected two stats"

(* omn_parallel determinism contract: evaluate under 2 domains must
   produce exactly the sequential stats (same RNG workload, per-message
   outcomes folded in message order). *)
let evaluate_parallel_bit_identical () =
  let trace = Util.random_trace (Rng.create 78) ~n:8 ~m:60 ~horizon:100 in
  let protocols = [ Protocol.Epidemic { ttl = Some 3 }; Protocol.Two_hop; Protocol.Direct ] in
  let eval ?pool ?domains () =
    Sim.evaluate ?pool ?domains (Rng.create 4) trace ~protocols ~messages:40 ~deadline:60.
  in
  let seq = eval () in
  Alcotest.(check bool) "~domains:2 bit-identical" true (eval ~domains:2 () = seq);
  Omn_parallel.Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "shared pool bit-identical" true (eval ~pool () = seq))

(* A NaN deadline fails every comparison, and a negative TTL delivers
   nothing: [evaluate] refuses both before it draws a message. *)
let evaluate_refuses_bad_deadline_and_ttl () =
  let trace = Util.random_trace (Rng.create 79) ~n:6 ~m:30 ~horizon:100 in
  let expect_invalid name ~protocols ~deadline =
    match Sim.evaluate (Rng.create 1) trace ~protocols ~messages:10 ~deadline with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  let epidemic = [ Protocol.Epidemic { ttl = None } ] in
  expect_invalid "deadline nan" ~protocols:epidemic ~deadline:Float.nan;
  expect_invalid "deadline -1" ~protocols:epidemic ~deadline:(-1.);
  expect_invalid "ttl -1" ~protocols:[ Protocol.Epidemic { ttl = Some (-1) } ] ~deadline:60.

let suite =
  [
    Alcotest.test_case "direct only src->dst" `Quick direct_only_src_dst;
    Alcotest.test_case "two-hop hop limit" `Quick two_hop_limits;
    Alcotest.test_case "spray budget" `Quick spray_budget;
    Alcotest.test_case "last-encounter greedy choice" `Quick last_encounter_greedy;
    Alcotest.test_case "last-encounter uses pre-message history" `Quick
      last_encounter_uses_history;
    Alcotest.test_case "input validation" `Quick validation;
    Alcotest.test_case "evaluate aggregates" `Quick evaluate_shapes;
    Alcotest.test_case "parallel evaluate bit-identical" `Quick evaluate_parallel_bit_identical;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        epidemic_matches_bounded_dijkstra; epidemic_unlimited_matches_dijkstra; ttl_monotone;
        epidemic_dominates; outcomes_sane;
      ]
  @ [
      Alcotest.test_case "evaluate refuses a NaN deadline and a negative TTL" `Quick
        evaluate_refuses_bad_deadline_and_ttl;
    ]
