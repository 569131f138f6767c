open Omn_core
module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace

let frontier_gen =
  QCheck2.Gen.(
    let* points =
      list_size (int_range 0 12)
        (map2 (fun ld ea -> Ld_ea.make ~ld:(float_of_int ld) ~ea:(float_of_int ea))
           (int_range 0 40) (int_range 0 40))
    in
    let f = Frontier.create () in
    List.iter (fun p -> ignore (Frontier.insert f p)) points;
    return (Frontier.to_array f))

let grid = [| 0.; 1.; 2.; 5.; 10.; 20.; 50. |]

(* The accumulator must agree with per-pair exact measures. *)
let accumulator_matches_measures =
  QCheck2.Test.make ~count:300 ~name:"Delay_cdf = sum of Delivery.success_measure"
    QCheck2.Gen.(list_size (int_range 1 6) frontier_gen)
    (fun snapshots ->
      let t_start = 0. and t_end = 45. in
      let acc = Delay_cdf.create ~grid in
      List.iter (fun s -> Delay_cdf.add_pair acc ~t_start ~t_end s) snapshots;
      let total = float_of_int (List.length snapshots) *. (t_end -. t_start) in
      let success = Delay_cdf.success acc in
      let ok = ref (Float.abs (Delay_cdf.total_mass acc -. total) < 1e-9) in
      Array.iteri
        (fun i budget ->
          let expected =
            List.fold_left
              (fun s snapshot ->
                s
                +. Delivery.success_measure (Delivery.of_descriptors snapshot) ~t_start ~t_end
                     ~budget)
              0. snapshots
            /. total
          in
          if Float.abs (success.(i) -. expected) > 1e-9 then ok := false)
        grid;
      let expected_inf =
        List.fold_left
          (fun s snapshot ->
            s
            +. Delivery.success_measure (Delivery.of_descriptors snapshot) ~t_start ~t_end
                 ~budget:infinity)
          0. snapshots
        /. total
      in
      !ok && Float.abs (Delay_cdf.success_inf acc -. expected_inf) < 1e-9)

let success_monotone_in_budget =
  QCheck2.Test.make ~count:300 ~name:"success curve non-decreasing"
    QCheck2.Gen.(list_size (int_range 1 6) frontier_gen)
    (fun snapshots ->
      let acc = Delay_cdf.create ~grid in
      List.iter (fun s -> Delay_cdf.add_pair acc ~t_start:0. ~t_end:45. s) snapshots;
      let success = Delay_cdf.success acc in
      let ok = ref true in
      for i = 1 to Array.length success - 1 do
        if success.(i) < success.(i - 1) -. 1e-12 then ok := false
      done;
      !ok && Delay_cdf.success_inf acc >= success.(Array.length success - 1) -. 1e-12)

let rejects_bad_grid () =
  (match Delay_cdf.create ~grid:[| 1.; 0.5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "descending grid accepted");
  match Delay_cdf.create ~grid:[| -1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget accepted"

(* End-to-end: curves on random traces are coherent. *)
let trace_gen =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 1 20 in
    let* seed = int in
    return (Util.random_trace (Rng.create seed) ~n ~m ~horizon:30))

let curves_coherent =
  QCheck2.Test.make ~count:60 ~name:"hop curves nest: cdf_k <= cdf_{k+1} <= flood"
    trace_gen (fun trace ->
      let curves =
        Delay_cdf.compute ~max_hops:5 ~grid:[| 1.; 3.; 10.; 30. |] trace
      in
      let ok = ref true in
      let n_grid = Array.length curves.grid in
      for i = 0 to n_grid - 1 do
        for k = 1 to 4 do
          if curves.hop_success.(k - 1).(i) > curves.hop_success.(k).(i) +. 1e-12 then ok := false
        done;
        if curves.hop_success.(4).(i) > curves.flood_success.(i) +. 1e-12 then ok := false
      done;
      for k = 1 to 4 do
        if curves.hop_success_inf.(k - 1) > curves.hop_success_inf.(k) +. 1e-12 then ok := false
      done;
      !ok && curves.hop_success_inf.(4) <= curves.flood_success_inf +. 1e-12)

(* Cross-check one grid point of compute against direct per-pair journeys. *)
let compute_matches_journeys =
  QCheck2.Test.make ~count:40 ~name:"compute = per-pair journey measures" trace_gen
    (fun trace ->
      let budget_grid = [| 2.; 8.; 25. |] in
      let curves = Delay_cdf.compute ~max_hops:4 ~grid:budget_grid trace in
      let n = Trace.n_nodes trace in
      let t_start = Trace.t_start trace and t_end = Trace.t_end trace in
      let total = float_of_int (n * (n - 1)) *. (t_end -. t_start) in
      let ok = ref true in
      (* hop bound 2 checked exhaustively *)
      let mass = Array.make (Array.length budget_grid) 0. in
      for source = 0 to n - 1 do
        let frontiers = Journey.frontiers_at_hops trace ~source ~max_hops:2 in
        for dest = 0 to n - 1 do
          if dest <> source then begin
            let delivery = Delivery.of_descriptors (Frontier.to_array frontiers.(dest)) in
            Array.iteri
              (fun i budget ->
                mass.(i) <-
                  mass.(i) +. Delivery.success_measure delivery ~t_start ~t_end ~budget)
              budget_grid
          end
        done
      done;
      Array.iteri
        (fun i m ->
          if Float.abs ((m /. total) -. curves.hop_success.(1).(i)) > 1e-9 then ok := false)
        mass;
      !ok)

let parallel_matches_sequential =
  QCheck2.Test.make ~count:20 ~name:"domains=3 gives the sequential curves" trace_gen
    (fun trace ->
      let grid = [| 1.; 3.; 10.; 30. |] in
      let seq = Delay_cdf.compute ~max_hops:4 ~grid trace in
      let par = Delay_cdf.compute ~max_hops:4 ~grid ~domains:3 trace in
      let close a b = Float.abs (a -. b) < 1e-9 in
      let rows_close a b =
        Array.for_all2 (fun r1 r2 -> Array.for_all2 close r1 r2) a b
      in
      rows_close seq.hop_success par.hop_success
      && Array.for_all2 close seq.flood_success par.flood_success
      && close seq.flood_success_inf par.flood_success_inf
      && seq.max_rounds_used = par.max_rounds_used)

(* Stronger than parallel_matches_sequential: on realistic venue traces
   the parallel curves must be *bit-identical* (structural equality on
   every float) to the sequential ones, for several domain counts — the
   omn_parallel determinism contract. *)
let venue_trace_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 8 14 in
    return
      (let rng = Rng.create seed in
       let params = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.1 in
       Omn_mobility.Venue.generate rng ~n ~name:"venue-qcheck" params))

let parallel_bit_identical =
  QCheck2.Test.make ~count:5 ~name:"compute ~domains:{2,4} bit-identical to sequential"
    venue_trace_gen (fun trace ->
      let grid = [| 60.; 600.; 3600.; 14400. |] in
      let seq = Delay_cdf.compute ~max_hops:4 ~grid trace in
      List.for_all
        (fun domains -> Delay_cdf.compute ~max_hops:4 ~grid ~domains trace = seq)
        [ 2; 4 ])

let merge_distributes () =
  let grid = [| 1.; 5.; 20. |] in
  let snapshot ld ea = [| Omn_core.Ld_ea.make ~ld ~ea |] in
  let a = Delay_cdf.create ~grid and b = Delay_cdf.create ~grid in
  let whole = Delay_cdf.create ~grid in
  Delay_cdf.add_pair a ~t_start:0. ~t_end:30. (snapshot 10. 4.);
  Delay_cdf.add_pair b ~t_start:0. ~t_end:30. (snapshot 25. 28.);
  Delay_cdf.add_pair whole ~t_start:0. ~t_end:30. (snapshot 10. 4.);
  Delay_cdf.add_pair whole ~t_start:0. ~t_end:30. (snapshot 25. 28.);
  Delay_cdf.merge_into ~dst:a b;
  Alcotest.(check (array (float 1e-12))) "merged curve" (Delay_cdf.success whole)
    (Delay_cdf.success a);
  Util.check_float "merged inf" (Delay_cdf.success_inf whole) (Delay_cdf.success_inf a);
  match Delay_cdf.merge_into ~dst:a (Delay_cdf.create ~grid:[| 2. |]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "grid mismatch accepted"

(* The merge-order contract against an independent oracle: per-source
   accumulators built from the public primitives and merged with
   [merge_into] in the caller's order. On fractional times another
   order changes the floats, so a fold that merged by node id, by
   completion order or in reverse would fail here — and the batched,
   sampled and sharded drivers are pinned to [compute] elsewhere. *)
let merge_order_is_caller_position () =
  let trace = Util.random_trace ~scale:0.37 (Rng.create 4242) ~n:9 ~m:70 ~horizon:120 in
  let grid = [| 1.; 4.; 15.; 40. |] and max_hops = 3 in
  let sources = [ 7; 2; 8; 0; 5; 1; 6; 3; 4 ] in
  let hops = Array.init max_hops (fun _ -> Delay_cdf.create ~grid) in
  let flood = Delay_cdf.create ~grid in
  List.iter
    (fun source ->
      let s_hops = Array.init max_hops (fun _ -> Delay_cdf.create ~grid) in
      let s_flood = Delay_cdf.create ~grid in
      let add acc frontiers =
        Array.iteri
          (fun dest f ->
            if dest <> source then
              Delay_cdf.add_pair_frontier acc ~t_start:0. ~t_end:(Trace.t_end trace) f)
          frontiers
      in
      let on_round (r : Journey.round_info) =
        if r.hop <= max_hops then add s_hops.(r.hop - 1) r.frontiers
      in
      let frontiers, rounds = Journey.run ~on_round trace ~source in
      for k = rounds + 1 to max_hops do
        add s_hops.(k - 1) frontiers
      done;
      add s_flood frontiers;
      Array.iteri (fun i acc -> Delay_cdf.merge_into ~dst:hops.(i) acc) s_hops;
      Delay_cdf.merge_into ~dst:flood s_flood)
    sources;
  let c = Delay_cdf.compute ~max_hops ~grid ~sources trace in
  Alcotest.(check bool) "hop curves are the caller-order merge" true
    (c.hop_success = Array.map Delay_cdf.success hops
    && c.hop_success_inf = Array.map Delay_cdf.success_inf hops);
  Alcotest.(check bool) "flood curve is the caller-order merge" true
    (c.flood_success = Delay_cdf.success flood
    && c.flood_success_inf = Delay_cdf.success_inf flood)

let suite =
  [
    Alcotest.test_case "rejects bad grids" `Quick rejects_bad_grid;
    Alcotest.test_case "merge distributes over pairs" `Quick merge_distributes;
    Alcotest.test_case "merge order is the caller's source order" `Quick
      merge_order_is_caller_position;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        accumulator_matches_measures; success_monotone_in_budget; curves_coherent;
        compute_matches_journeys; parallel_matches_sequential; parallel_bit_identical;
      ]
