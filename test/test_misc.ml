(* Corner coverage for small public APIs not exercised elsewhere. *)

module Rng = Omn_stats.Rng

let trace_with_name () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.) ] in
  let renamed = Omn_temporal.Trace.with_name trace "renamed" in
  Alcotest.(check string) "name" "renamed" (Omn_temporal.Trace.name renamed);
  Alcotest.(check int) "contacts preserved" 1 (Omn_temporal.Trace.n_contacts renamed)

let merge_rejects_mismatch () =
  let t1 = Util.trace_of_contacts ~n_nodes:2 [ (0, 1, 0., 1.) ] in
  let t2 = Util.trace_of_contacts ~n_nodes:3 [ (0, 2, 0., 1.) ] in
  match Omn_temporal.Transform.merge t1 t2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "node-count mismatch accepted"

let empirical_support_and_variance () =
  let d = Omn_stats.Empirical.of_weighted [| (2., 1.); (2., 1.); (6., 2.) |] in
  let support = Omn_stats.Empirical.support d in
  Alcotest.(check int) "merged duplicates" 2 (Array.length support);
  Alcotest.(check (float 1e-9)) "cumulative at 2" 2. (snd support.(0));
  Alcotest.(check (float 1e-9)) "mean" 4. (Omn_stats.Empirical.mean_finite d);
  Alcotest.(check (float 1e-9)) "variance" 4. (Omn_stats.Empirical.variance_finite d);
  Alcotest.(check (option (float 0.))) "min" (Some 2.) (Omn_stats.Empirical.min_finite d);
  Alcotest.(check (option (float 0.))) "max" (Some 6.) (Omn_stats.Empirical.max_finite d)

let grid_named_delays () =
  let names = List.map fst Omn_stats.Grid.delay_named in
  Alcotest.(check bool) "starts at 2 min" true (List.hd names = "2 min");
  let values = List.map snd Omn_stats.Grid.delay_named in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending" true (ascending values)

let timefmt_pp () =
  Alcotest.(check string) "pp_duration" "2.0 min"
    (Format.asprintf "%a" Omn_stats.Timefmt.pp_duration 120.)

let delivery_plot () =
  let d =
    Omn_core.Delivery.of_descriptors [| Omn_core.Ld_ea.make ~ld:10. ~ea:5. |]
  in
  let points = Omn_core.Delivery.plot d ~times:[| 0.; 7.; 20. |] in
  Alcotest.(check int) "points" 3 (Array.length points);
  Util.check_float "before" 5. (snd points.(0));
  Util.check_float "inside" 7. (snd points.(1));
  Util.check_float "after" infinity (snd points.(2))

let theory_long_supercritical_interval () =
  (* lambda >= 1, long contacts: any tau is supercritical; gamma2 is the
     documented search cap. *)
  match
    Omn_randnet.Theory.supercritical_gamma_interval Omn_randnet.Theory.Long ~lambda:1.5
      ~tau:0.05
  with
  | None -> Alcotest.fail "expected an interval"
  | Some (g1, g2) ->
    Alcotest.(check bool) "nonempty" true (g1 < g2);
    Alcotest.(check bool) "g1 positive" true (g1 > 0.)

let frontier_copy_independent () =
  let f = Omn_core.Frontier.create () in
  ignore (Omn_core.Frontier.insert f (Omn_core.Ld_ea.make ~ld:1. ~ea:0.));
  let g = Omn_core.Frontier.copy f in
  ignore (Omn_core.Frontier.insert g (Omn_core.Ld_ea.make ~ld:2. ~ea:1.));
  Alcotest.(check int) "original untouched" 1 (Omn_core.Frontier.size f);
  Alcotest.(check int) "copy grew" 2 (Omn_core.Frontier.size g)

let discrete_flood_long_coherent () =
  let rng = Rng.create 5 in
  let params = { Omn_randnet.Discrete.n = 25; lambda = 1.0 } in
  let result =
    Omn_randnet.Discrete.flood rng params ~source:0 ~case:Omn_randnet.Theory.Long ~t_max:25
  in
  Array.iteri
    (fun v arrival ->
      if v <> 0 && arrival <> max_int then begin
        Alcotest.(check bool) "arrival positive" true (arrival >= 1);
        Alcotest.(check bool) "hops at least 1" true (result.hops.(v) >= 1)
      end)
    result.arrival

let protocol_names_unique () =
  let protocols =
    Omn_forwarding.Protocol.
      [
        Epidemic { ttl = None }; Epidemic { ttl = Some 3 }; Direct; Two_hop;
        Spray_and_wait { copies = 4 }; First_contact; Last_encounter;
      ]
  in
  let names = List.map Omn_forwarding.Protocol.name protocols in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let spray_hop_bounds () =
  let bound c =
    Omn_forwarding.Protocol.hop_bound (Omn_forwarding.Protocol.Spray_and_wait { copies = c })
  in
  Alcotest.(check (option int)) "1 copy = direct" (Some 1) (bound 1);
  Alcotest.(check (option int)) "2 copies" (Some 2) (bound 2);
  Alcotest.(check (option int)) "8 copies" (Some 4) (bound 8)

let suite =
  [
    Alcotest.test_case "trace rename" `Quick trace_with_name;
    Alcotest.test_case "merge node-count mismatch" `Quick merge_rejects_mismatch;
    Alcotest.test_case "empirical support/variance" `Quick empirical_support_and_variance;
    Alcotest.test_case "named delay landmarks" `Quick grid_named_delays;
    Alcotest.test_case "timefmt pretty-printer" `Quick timefmt_pp;
    Alcotest.test_case "delivery plot" `Quick delivery_plot;
    Alcotest.test_case "long-case supercritical interval" `Quick
      theory_long_supercritical_interval;
    Alcotest.test_case "frontier copy" `Quick frontier_copy_independent;
    Alcotest.test_case "long-case flood coherent" `Quick discrete_flood_long_coherent;
    Alcotest.test_case "protocol names unique" `Quick protocol_names_unique;
    Alcotest.test_case "spray hop bounds" `Quick spray_hop_bounds;
  ]
