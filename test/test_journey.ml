open Omn_core
module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace

let frontier_list f = Array.to_list (Frontier.to_array f)

(* --- Gold test 1: hop-bounded frontiers match exhaustive enumeration. --- *)

let check_against_enumeration trace ~max_hops =
  let n = Trace.n_nodes trace in
  for source = 0 to n - 1 do
    for hops = 1 to max_hops do
      let fast = Journey.frontiers_at_hops trace ~source ~max_hops:hops in
      let slow = Omn_baseline.Enumerate.frontiers trace ~source ~max_hops:hops in
      for dest = 0 to n - 1 do
        if not (Frontier.equal fast.(dest) slow.(dest)) then
          Alcotest.failf "source %d dest %d hops %d:@ fast %s@ slow %s" source dest hops
            (Format.asprintf "%a" Frontier.pp fast.(dest))
            (Format.asprintf "%a" Frontier.pp slow.(dest))
      done
    done
  done

let enumeration_gold () =
  let rng = Rng.create 42 in
  for _ = 1 to 150 do
    let n = 2 + Rng.int rng 4 in
    let m = 1 + Rng.int rng 7 in
    let trace = Util.random_trace rng ~n ~m ~horizon:12 in
    check_against_enumeration trace ~max_hops:4
  done

(* --- Gold test 2: fixpoint delivery matches the flooding oracle. --- *)

let flooding_gold () =
  let rng = Rng.create 7 in
  for _ = 1 to 25 do
    let n = 3 + Rng.int rng 6 in
    let m = 5 + Rng.int rng 25 in
    let trace = Util.random_trace rng ~n ~m ~horizon:50 in
    for source = 0 to n - 1 do
      let frontiers, _ = Journey.run trace ~source in
      let oracle = Omn_baseline.Flooding.compute trace ~source in
      for dest = 0 to n - 1 do
        if dest <> source then begin
          let delivery = Delivery.of_descriptors (Frontier.to_array frontiers.(dest)) in
          for _ = 1 to 40 do
            let t = Rng.float_range rng (-5.) 55. in
            Util.check_float
              (Printf.sprintf "del s=%d d=%d t=%g" source dest t)
              (Omn_baseline.Flooding.del oracle ~dest t)
              (Delivery.del delivery t)
          done;
          (* Exact boundary creation times too. *)
          Array.iter
            (fun (b, expected) ->
              Util.check_float
                (Printf.sprintf "boundary del s=%d d=%d t=%g" source dest b)
                expected (Delivery.del delivery b))
            (Omn_baseline.Flooding.samples oracle ~dest)
        end
      done
    done
  done

(* --- Gold test 3: hop-bounded delivery matches Bellman-Ford rounds. --- *)

let bounded_dijkstra_gold () =
  let rng = Rng.create 99 in
  for _ = 1 to 30 do
    let n = 3 + Rng.int rng 5 in
    let m = 4 + Rng.int rng 20 in
    let trace = Util.random_trace rng ~n ~m ~horizon:40 in
    let max_hops = 4 in
    for source = 0 to n - 1 do
      for _ = 1 to 10 do
        let t0 = Rng.float_range rng 0. 40. in
        let rows =
          Omn_baseline.Dijkstra.earliest_arrival_bounded trace ~source ~t0 ~max_hops
        in
        for hops = 1 to max_hops do
          let frontiers = Journey.frontiers_at_hops trace ~source ~max_hops:hops in
          for dest = 0 to n - 1 do
            if dest <> source then
              Util.check_float
                (Printf.sprintf "bounded s=%d d=%d k=%d t0=%g" source dest hops t0)
                rows.(hops).(dest)
                (Frontier.delivery frontiers.(dest) t0)
          done
        done
      done
    done
  done

(* --- Hand-crafted topologies. --- *)

(* A space-time line: contact (i, i+1) at time slot i. The only path from
   0 to k uses k contacts in chronological order (store-carry-forward). *)
let line_trace n =
  Util.trace_of_contacts
    (List.init (n - 1) (fun i -> (i, i + 1, float_of_int i, float_of_int i +. 0.5)))

let line_topology () =
  let n = 6 in
  let trace = line_trace n in
  let frontiers, rounds = Journey.run trace ~source:0 in
  Alcotest.(check int) "fixpoint rounds" (n - 1) rounds;
  (* Node k is reached at time k-1 (start of its last contact), provided
     departure by time 0.5 (end of the first contact). *)
  for dest = 1 to n - 1 do
    let f = frontier_list frontiers.(dest) in
    Alcotest.(check int) (Printf.sprintf "one optimal path to %d" dest) 1 (List.length f);
    let p = List.hd f in
    Util.check_float "ld" 0.5 p.Ld_ea.ld;
    Util.check_float "ea" (float_of_int (dest - 1)) p.Ld_ea.ea
  done;
  (* Hop bound below the needed length: unreachable. *)
  let bounded = Journey.frontiers_at_hops trace ~source:0 ~max_hops:(n - 2) in
  Alcotest.(check bool) "last node unreachable" true (Frontier.is_empty bounded.(n - 1))

(* Long-contact chaining: overlapping contacts allow a multi-hop path
   within one "instant". *)
let simultaneous_contacts () =
  let trace =
    Util.trace_of_contacts [ (0, 1, 10., 20.); (1, 2, 10., 20.); (2, 3, 10., 20.) ]
  in
  let frontiers, _ = Journey.run trace ~source:0 in
  let f = frontier_list frontiers.(3) in
  Alcotest.(check int) "single descriptor" 1 (List.length f);
  let p = List.hd f in
  (* Depart any time before 20, arrive max(t, 10): contemporaneous window. *)
  Util.check_float "ld" 20. p.Ld_ea.ld;
  Util.check_float "ea" 10. p.Ld_ea.ea;
  Util.check_float "delivery mid-window" 15. (Frontier.delivery frontiers.(3) 15.)

(* Waiting at a relay: 0-1 contact ends before 1-2 contact begins. *)
let store_and_forward () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.); (1, 2, 5., 6.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  let f = frontier_list frontiers.(2) in
  Alcotest.(check int) "single descriptor" 1 (List.length f);
  let p = List.hd f in
  Util.check_float "ld" 1. p.Ld_ea.ld;
  Util.check_float "ea" 5. p.Ld_ea.ea;
  (* Created at 0.5: leaves during first contact, waits at 1, arrives 5. *)
  Util.check_float "delivery" 5. (Frontier.delivery frontiers.(2) 0.5);
  Util.check_float "too late" infinity (Frontier.delivery frontiers.(2) 1.5)

(* The reverse order gives no path (chronology violated). *)
let chronology_respected () =
  let trace = Util.trace_of_contacts [ (0, 1, 5., 6.); (1, 2, 0., 1.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  Alcotest.(check bool) "no path 0->2" true (Frontier.is_empty frontiers.(2));
  (* But 2 -> 0 works. *)
  let frontiers, _ = Journey.run trace ~source:2 in
  Alcotest.(check bool) "path 2->0 exists" false (Frontier.is_empty frontiers.(0))

(* Multiple optimal paths: Fig. 5-style delivery function with several
   discontinuities. *)
let several_descriptors () =
  let trace =
    Util.trace_of_contacts
      [ (0, 1, 0., 1.); (1, 2, 2., 3.); (0, 2, 8., 9.); (0, 3, 4., 5.); (3, 2, 6., 7.) ]
  in
  let delivery = Journey.delivery_to trace ~source:0 ~dest:2 () in
  (* Three distinct ways: via 1 (leave by 1, arrive 2), via 3 (leave by 5,
     arrive 6), direct (leave by 9, arrive 8). *)
  Alcotest.(check int) "three optimal paths" 3 (Delivery.n_optimal_paths delivery);
  Util.check_float "early" 2. (Delivery.del delivery 0.5);
  Util.check_float "mid" 6. (Delivery.del delivery 1.5);
  Util.check_float "late direct" 8. (Delivery.del delivery 6.);
  Util.check_float "inside direct" 8.5 (Delivery.del delivery 8.5);
  Util.check_float "gone" infinity (Delivery.del delivery 9.5)

let identity_on_source () =
  let trace = Util.trace_of_contacts [ (0, 1, 0., 1.) ] in
  let frontiers, _ = Journey.run trace ~source:0 in
  Util.check_float "self delivery" 42. (Frontier.delivery frontiers.(0) 42.)

let empty_trace () =
  let trace = Omn_temporal.Trace.create ~n_nodes:3 ~t_start:0. ~t_end:10. [] in
  let frontiers, rounds = Journey.run trace ~source:1 in
  Alcotest.(check int) "rounds" 0 rounds;
  Alcotest.(check bool) "no reach" true (Frontier.is_empty frontiers.(0))

(* The ablation strategy must give identical frontiers. *)
let strategies_agree () =
  let rng = Rng.create 1234 in
  for _ = 1 to 30 do
    let n = 3 + Rng.int rng 5 in
    let m = 3 + Rng.int rng 20 in
    let trace = Util.random_trace rng ~n ~m ~horizon:30 in
    for source = 0 to n - 1 do
      let fast, r1 = Journey.run ~strategy:Journey.Semi_naive trace ~source in
      let slow, r2 = Journey.run ~strategy:Journey.Full_recompute trace ~source in
      Alcotest.(check int) "same rounds" r1 r2;
      Array.iteri
        (fun dest f ->
          if not (Frontier.equal f slow.(dest)) then
            Alcotest.failf "strategy mismatch source %d dest %d" source dest)
        fast
    done
  done

(* --- Oracle: the sweep before per-node cursors. --- *)

module Metrics = Omn_obs.Metrics

(* [Journey.run_internal] as it stood before the per-node [j] cursors
   and the inline domination check: [extend] runs three binary searches
   over the delta per contact and hands every candidate to
   [insert_cand]. Kept verbatim as a differential oracle, minus
   [stop_after] and [on_round] (it returns a snapshot of every round's
   frontiers instead) and plus the [reference_case_a] tally, which lets
   the generator families show that they reach case (a). *)
let reference_case_a = ref 0

let reference_run ~strategy trace ~source =
  let n = Trace.n_nodes trace in
  let frontiers = Array.init n (fun _ -> Frontier.create ()) in
  let _ = Frontier.insert frontiers.(source) Ld_ea.identity in
  let delta = ref (Array.init n (fun _ -> Frontier.create ())) in
  let next = ref (Array.init n (fun _ -> Frontier.create ())) in
  Frontier.insert_scratch !delta.(source) ~ld:Ld_ea.identity.ld ~ea:Ld_ea.identity.ea;
  let touched = ref (Array.make n 0) and touched_n = ref 1 in
  let next_touched = ref (Array.make n 0) and next_touched_n = ref 0 in
  !touched.(0) <- source;
  let csr = Trace.time_csr trace in
  let cbeg = csr.Trace.csr_beg and cend = csr.Trace.csr_end in
  let m = Array.length csr.Trace.csr_a in
  let changed = ref 0 in
  let insert_cand to_node ld ea =
    if Frontier.insert_pt frontiers.(to_node) ~ld ~ea then begin
      let nxt = !next.(to_node) in
      if Frontier.is_empty nxt then begin
        !next_touched.(!next_touched_n) <- to_node;
        incr next_touched_n
      end;
      Frontier.insert_scratch nxt ~ld ~ea;
      incr changed
    end
  in
  let extend from_node to_node ci =
    let d = !delta.(from_node) in
    let dn = Frontier.size d in
    if dn > 0 then begin
      let tb = cbeg.(ci) and te = cend.(ci) in
      let dld = Frontier.ld_arr d and dea = Frontier.ea_arr d in
      (* i = first delta index with ld >= te. *)
      let i =
        let lo = ref 0 and hi = ref dn in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if dld.(mid) >= te then hi := mid else lo := mid + 1
        done;
        !lo
      in
      if i < dn && dea.(i) <= te then begin
        incr reference_case_a;
        insert_cand to_node te (if dea.(i) >= tb then dea.(i) else tb)
      end;
      (* j = last delta index with ea <= tb. *)
      let j =
        let lo = ref 0 and hi = ref dn in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if dea.(mid) > tb then hi := mid else lo := mid + 1
        done;
        !lo - 1
      in
      if j >= 0 && dld.(j) < te then insert_cand to_node dld.(j) tb;
      (* every delta point with tb < ea <= te and ld < te, verbatim *)
      let hi =
        let lo = ref 0 and hi = ref dn in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if dea.(mid) > te then hi := mid else lo := mid + 1
        done;
        if !lo < i then !lo else i
      in
      for k = j + 1 to hi - 1 do
        insert_cand to_node dld.(k) dea.(k)
      done
    end
  in
  let do_round () =
    changed := 0;
    next_touched_n := 0;
    for ci = 0 to m - 1 do
      extend csr.Trace.csr_a.(ci) csr.Trace.csr_b.(ci) ci;
      extend csr.Trace.csr_b.(ci) csr.Trace.csr_a.(ci) ci
    done;
    (match strategy with
    | Journey.Semi_naive ->
      for idx = 0 to !touched_n - 1 do
        Frontier.clear !delta.(!touched.(idx))
      done;
      let d = !delta in
      delta := !next;
      next := d;
      let t = !touched in
      touched := !next_touched;
      next_touched := t;
      touched_n := !next_touched_n
    | Journey.Full_recompute ->
      for idx = 0 to !next_touched_n - 1 do
        Frontier.clear !next.(!next_touched.(idx))
      done;
      for idx = 0 to !touched_n - 1 do
        Frontier.clear !delta.(!touched.(idx))
      done;
      touched_n := 0;
      for v = 0 to n - 1 do
        if not (Frontier.is_empty frontiers.(v)) then begin
          Frontier.copy_into ~src:frontiers.(v) ~dst:!delta.(v);
          !touched.(!touched_n) <- v;
          incr touched_n
        end
      done);
    !changed
  in
  let rec loop acc =
    match do_round () with
    | 0 -> List.rev acc
    | _ -> loop (Array.map Frontier.copy frontiers :: acc)
  in
  let per_round = loop [] in
  (frontiers, per_round)

(* Oracle families, each a trace builder over a seeded RNG: integer
   grid intervals; many contacts sharing one of two start times (long
   runs of equal [tb], so the cursor must not skip ahead); zero-length
   contacts ([tb = te], the boundary of every comparison); long
   contacts nested around short ones, whose descriptors keep
   [ld >= te] points below [hi] — case (a) and the [i] search; and a
   few hundred short contacts among 3–4 nodes over a long horizon,
   whose destination frontiers grow long enough for the finger search
   of [dominated] to take long steps. *)
let oracle_contacts ?(horizon = 30) rng ~n ~m contact =
  let pairs =
    List.init m (fun _ ->
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        let tb, te = contact () in
        (min a b, max a b, float_of_int tb, float_of_int te))
  in
  Util.trace_of_contacts ~n_nodes:n ~t_start:0. ~t_end:(float_of_int horizon) pairs

let oracle_families =
  [
    ( "grid",
      fun rng ->
        let n = 2 + Rng.int rng 7 in
        Util.random_trace rng ~n ~m:(1 + Rng.int rng 40) ~horizon:30 );
    ( "shared-start",
      fun rng ->
        oracle_contacts rng ~n:(2 + Rng.int rng 7) ~m:(1 + Rng.int rng 40) (fun () ->
            let tb = 10 * Rng.int rng 2 in
            (tb, tb + Rng.int rng 15)) );
    ( "zero-duration",
      fun rng ->
        oracle_contacts rng ~n:(2 + Rng.int rng 7) ~m:(1 + Rng.int rng 40) (fun () ->
            let t = Rng.int rng 31 in
            (t, t)) );
    ( "nested",
      fun rng ->
        oracle_contacts rng ~n:(2 + Rng.int rng 5) ~m:(1 + Rng.int rng 40) (fun () ->
            if Rng.bool rng then (Rng.int rng 5, 25 + Rng.int rng 6)
            else
              let tb = 5 + Rng.int rng 20 in
              (tb, tb + Rng.int rng 4)) );
    ( "long-frontier",
      fun rng ->
        let horizon = 20_000 in
        oracle_contacts ~horizon rng ~n:(3 + Rng.int rng 2) ~m:(200 + Rng.int rng 200)
          (fun () ->
            let tb = Rng.int rng (horizon - 4) in
            (tb, tb + Rng.int rng 5)) );
  ]

(* Each round's frontiers are the Pareto antichain of the previous
   round's and of every crossing of last round's delta, whichever sweep
   path produced them; only the insertion order, and with it [changed]
   and the kept/pruned counters, depends on the path. So the oracle
   compares every round's frontiers. *)
let prop_cursor_sweep_matches_reference =
  QCheck2.Test.make ~count:400 ~name:"cursor sweep = three-search reference sweep"
    QCheck2.Gen.(triple (int_bound (List.length oracle_families - 1)) bool int)
    (fun (family, full, seed) ->
      let name, build = List.nth oracle_families family in
      let trace = build (Rng.create seed) in
      let strategy = if full then Journey.Full_recompute else Journey.Semi_naive in
      for source = 0 to Trace.n_nodes trace - 1 do
        let want, want_rounds = reference_run ~strategy trace ~source in
        let per_round = ref [] in
        let on_round (r : Journey.round_info) =
          per_round := Array.map Frontier.copy r.frontiers :: !per_round
        in
        let got, _ = Journey.run ~strategy ~on_round trace ~source in
        let got_rounds = List.rev !per_round in
        let where = Printf.sprintf "%s seed %d full %b source %d" name seed full source in
        if List.length got_rounds <> List.length want_rounds then
          QCheck2.Test.fail_reportf "%s: %d rounds, reference %d" where (List.length got_rounds)
            (List.length want_rounds);
        let compare_frontiers label want got =
          Array.iteri
            (fun dest f ->
              if not (Frontier.equal f got.(dest)) then
                QCheck2.Test.fail_reportf "%s %s dest %d:@ got %s@ reference %s" where label dest
                  (Format.asprintf "%a" Frontier.pp got.(dest))
                  (Format.asprintf "%a" Frontier.pp f))
            want
        in
        List.iteri
          (fun k (w, g) -> compare_frontiers (Printf.sprintf "round %d" (k + 1)) w g)
          (List.combine want_rounds got_rounds);
        compare_frontiers "fixpoint" want got
      done;
      true)

(* The oracle is only as strong as the cases it reaches: the nested
   family must emit case (a) candidates, i.e. deltas with [ld >= te]
   points below [hi]. *)
let oracle_reaches_case_a () =
  let build = List.assoc "nested" oracle_families in
  reference_case_a := 0;
  for seed = 0 to 19 do
    let trace = build (Rng.create seed) in
    for source = 0 to Trace.n_nodes trace - 1 do
      ignore (reference_run ~strategy:Journey.Semi_naive trace ~source)
    done
  done;
  Alcotest.(check bool) "case (a) emitted" true (!reference_case_a > 0)

(* Likewise for the finger search of [dominated]: its doubling steps
   run long only on long frontiers, so the long-frontier family must
   build a destination frontier of at least 64 points. *)
let oracle_reaches_long_frontiers () =
  let build = List.assoc "long-frontier" oracle_families in
  let longest = ref 0 in
  for seed = 0 to 19 do
    let trace = build (Rng.create seed) in
    for source = 0 to Trace.n_nodes trace - 1 do
      Array.iter
        (fun f -> longest := max !longest (Frontier.size f))
        (fst (Journey.run trace ~source))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "longest frontier %d >= 64" !longest)
    true (!longest >= 64)

(* Likewise for the pair rule of [Journey.extend]: every family must
   repeat pairs closely enough that the rule rejects case (b)
   candidates, or the property above would not test it. *)
let oracle_reaches_pair_rule () =
  let repeats () =
    Option.value ~default:0 (Metrics.counter_total (Metrics.snapshot ()) "journey.pair_repeats")
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  List.iter
    (fun (name, build) ->
      let before = repeats () in
      for seed = 0 to 19 do
        let trace = build (Rng.create seed) in
        for source = 0 to Trace.n_nodes trace - 1 do
          ignore (Journey.run trace ~source)
        done
      done;
      let got = repeats () - before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: journey.pair_repeats %d > 0" name got)
        true (got > 0))
    oracle_families

(* The oracle above checks both sweep paths only if the families run
   rounds on each: some on points, some on the contact scan. *)
let oracle_reaches_both_paths () =
  let total name =
    Option.value ~default:0 (Metrics.counter_total (Metrics.snapshot ()) name)
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  List.iter
    (fun (name, build) ->
      let rounds0 = total "journey.rounds" and points0 = total "journey.point_rounds" in
      for seed = 0 to 19 do
        let trace = build (Rng.create seed) in
        for source = 0 to Trace.n_nodes trace - 1 do
          ignore (Journey.run trace ~source)
        done
      done;
      let rounds = total "journey.rounds" - rounds0
      and points = total "journey.point_rounds" - points0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 < journey.point_rounds %d < journey.rounds %d" name points rounds)
        true
        (0 < points && points < rounds))
    oracle_families

(* --- The round bound: a fixpoint within n_nodes rounds. --- *)

(* A delay-optimal journey never repeats a node, so no run needs a
   round past n_nodes - 1, under either strategy. Over the four
   generator families of [test differential] ([Test_differential.instance]
   picks one by seed mod 4). *)
let prop_rounds_within_nodes =
  QCheck2.Test.make ~count:400 ~name:"rounds <= n_nodes - 1 on the differential families"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, full) ->
      let trace = Test_differential.instance seed in
      let n = Trace.n_nodes trace in
      let strategy = if full then Journey.Full_recompute else Journey.Semi_naive in
      for source = 0 to n - 1 do
        let _, rounds = Journey.run ~strategy trace ~source in
        if rounds > n - 1 then
          QCheck2.Test.fail_reportf "seed %d full %b source %d: %d rounds on %d nodes" seed full
            source rounds n
      done;
      true)

(* The chain of [Util] (1,030 nodes, contact i–(i+1) at time i) reaches
   the bound: from source 0 the fixpoint takes exactly 1,029 rounds,
   more than a constant cap of 1,024 allows, and a delay CDF over its
   first sources completes. *)
let chain_rounds () =
  let chain = Util.chain_trace () in
  let _, rounds = Journey.run chain ~source:0 in
  Alcotest.(check int) "rounds from source 0" 1029 rounds;
  let curves = Delay_cdf.compute ~sources:[ 0; 1; 2 ] ~max_hops:4 chain in
  Alcotest.(check int) "max_rounds_used of sources 0-2" 1029 curves.Delay_cdf.max_rounds_used

(* --- The workspace: reused by partial_of, never by the public default. --- *)

(* [Delay_cdf.partial_of] runs its journeys in its domain's workspace.
   What one source leaves there must not reach the next: sources A, B
   and A again of one trace, with a source of a trace of another node
   count in between, each give the partial of a fresh workspace, bit
   for bit (the whole payload: every accumulator cell and the rounds).
   A fresh domain has a fresh workspace. *)
let prop_workspace_leaks_nothing =
  QCheck2.Test.make ~count:100 ~name:"partial_of in a reused workspace = a fresh workspace's"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t1 = Test_differential.instance seed in
      let n1 = Trace.n_nodes t1 in
      let rng = Rng.create seed in
      let t2 = Util.random_trace ~scale:0.37 rng ~n:(n1 + 1 + Rng.int rng 3) ~m:20 ~horizon:40 in
      let plan trace =
        match Delay_cdf.plan ~max_hops:3 ~grid:[| 1.; 5.; 20. |] trace with
        | Ok p -> p
        | Error e -> QCheck2.Test.fail_reportf "plan: %s" e.Omn_robust.Err.msg
      in
      let p1 = plan t1 and p2 = plan t2 in
      let a = seed mod n1 in
      let b = (a + 1 + Rng.int rng (n1 - 1)) mod n1 in
      let c = Rng.int rng (Trace.n_nodes t2) in
      let payload plan s = Delay_cdf.partial_to_string (Delay_cdf.partial_of plan s) in
      let fresh plan s = Domain.join (Domain.spawn (fun () -> payload plan s)) in
      let runs = [ (p1, a, "A"); (p1, b, "B"); (p2, c, "other trace"); (p1, a, "A again") ] in
      let reused = List.map (fun (plan, s, _) -> payload plan s) runs in
      List.iter2
        (fun (plan, s, label) got ->
          if got <> fresh plan s then
            QCheck2.Test.fail_reportf "seed %d, %s (source %d): reused workspace differs" seed
              label s)
        runs reused;
      true)

(* Without a workspace, [Journey.run] returns frontiers that no later
   run touches: a second run, from another source of the same trace,
   leaves the first run's frontiers as they were. *)
let prop_public_runs_independent =
  QCheck2.Test.make ~count:200 ~name:"public runs return frontiers no later run touches"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let trace = Test_differential.instance seed in
      let n = Trace.n_nodes trace in
      let a = seed mod n in
      let b = (a + 1) mod n in
      let first, _ = Journey.run trace ~source:a in
      let kept = Array.map Frontier.copy first in
      ignore (Journey.run trace ~source:b);
      Array.iteri
        (fun dest f ->
          if not (Frontier.equal f kept.(dest)) then
            QCheck2.Test.fail_reportf "seed %d: run from %d changed run from %d's frontier %d" seed
              b a dest)
        first;
      true)

let suite =
  [
    Alcotest.test_case "semi-naive = full recompute (30 random traces)" `Slow strategies_agree;
    Alcotest.test_case "matches exhaustive enumeration (150 random traces)" `Slow
      enumeration_gold;
    Alcotest.test_case "matches flooding oracle (25 random traces)" `Slow flooding_gold;
    Alcotest.test_case "hop bounds match Bellman-Ford (30 random traces)" `Slow
      bounded_dijkstra_gold;
    Alcotest.test_case "space-time line" `Quick line_topology;
    Alcotest.test_case "simultaneous contacts chain in one window" `Quick simultaneous_contacts;
    Alcotest.test_case "store-and-forward wait at relay" `Quick store_and_forward;
    Alcotest.test_case "chronology respected" `Quick chronology_respected;
    Alcotest.test_case "several optimal paths (Fig. 5 shape)" `Quick several_descriptors;
    Alcotest.test_case "identity on source" `Quick identity_on_source;
    Alcotest.test_case "empty trace" `Quick empty_trace;
    Alcotest.test_case "oracle families reach case (a)" `Quick oracle_reaches_case_a;
    Alcotest.test_case "oracle families reach the pair rule" `Quick oracle_reaches_pair_rule;
    Alcotest.test_case "oracle families reach long frontiers" `Quick
      oracle_reaches_long_frontiers;
    QCheck_alcotest.to_alcotest prop_cursor_sweep_matches_reference;
    Alcotest.test_case "oracle families reach both sweep paths" `Quick
      oracle_reaches_both_paths;
    QCheck_alcotest.to_alcotest prop_rounds_within_nodes;
    Alcotest.test_case "chain: 1,029 rounds from source 0" `Quick chain_rounds;
    QCheck_alcotest.to_alcotest prop_workspace_leaks_nothing;
    QCheck_alcotest.to_alcotest prop_public_runs_independent;
  ]
