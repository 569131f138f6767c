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
  (match Delay_cdf.create ~grid:[| -1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget accepted");
  List.iter
    (fun grid ->
      match Delay_cdf.create ~grid with
      | exception Invalid_argument msg ->
        Alcotest.(check string) "message" "Delay_cdf.create: non-finite budget" msg
      | _ -> Alcotest.failf "grid with %h accepted" grid.(Array.length grid - 1))
    [ [| Float.nan |]; [| 1.; Float.nan |]; [| 1.; infinity |] ]

(* [lower], [add_segment] and [add_pair_frontier] as they stood before
   accumulation was inlined, kept verbatim over a record of the same
   shape as [Delay_cdf.t], with [success], [success_inf] and
   [total_mass] read the same way. The library must give the same bits
   on every cell: the same float operations in the same order. *)
module Frozen_accumulation = struct
  type t = {
    grid_ : float array;
    slope_diff : float array;
    const_diff : float array;
    full_diff : float array;
    mutable inf_mass : float;
    mutable total : float;
  }

  let create ~grid =
    let n = Array.length grid in
    {
      grid_ = Array.copy grid;
      slope_diff = Array.make (n + 1) 0.;
      const_diff = Array.make (n + 1) 0.;
      full_diff = Array.make (n + 1) 0.;
      inf_mass = 0.;
      total = 0.;
    }

  let lower t x =
    let n = Array.length t.grid_ in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.grid_.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo

  let add_segment t ~a ~b ~ea =
    if b > a then begin
      let i_lo = lower t (ea -. b) in
      let i_full = lower t (ea -. a) in
      if i_full > i_lo then begin
        t.slope_diff.(i_lo) <- t.slope_diff.(i_lo) +. 1.;
        t.slope_diff.(i_full) <- t.slope_diff.(i_full) -. 1.;
        t.const_diff.(i_lo) <- t.const_diff.(i_lo) +. (b -. ea);
        t.const_diff.(i_full) <- t.const_diff.(i_full) -. (b -. ea)
      end;
      t.full_diff.(i_full) <- t.full_diff.(i_full) +. (b -. a);
      t.inf_mass <- t.inf_mass +. (b -. a)
    end

  let add_pair_frontier t ~t_start ~t_end frontier =
    if t_start > t_end then invalid_arg "Delay_cdf.add_pair_frontier: reversed window";
    t.total <- t.total +. (t_end -. t_start);
    let n = Frontier.size frontier in
    let lds = Frontier.ld_arr frontier and eas = Frontier.ea_arr frontier in
    let prev_ld = ref neg_infinity in
    for i = 0 to n - 1 do
      let ld = lds.(i) in
      let a = Float.max t_start !prev_ld in
      let b = Float.min t_end ld in
      add_segment t ~a ~b ~ea:eas.(i);
      prev_ld := ld
    done

  let success t =
    let n = Array.length t.grid_ in
    let out = Array.make n 0. in
    let slope = ref 0. and const = ref 0. and full = ref 0. in
    for i = 0 to n - 1 do
      slope := !slope +. t.slope_diff.(i);
      const := !const +. t.const_diff.(i);
      full := !full +. t.full_diff.(i);
      let mass = (!slope *. t.grid_.(i)) +. !const +. !full in
      out.(i) <- (if t.total > 0. then mass /. t.total else 0.)
    done;
    out

  let success_inf t = if t.total > 0. then t.inf_mass /. t.total else 0.
end

(* Cases for the bit comparison: frontiers on fractional times (so the
   order of float additions shows in the last bits), windows that clip
   them at either end, and grids whose smallest budget is exactly some
   descriptor's [ea - ld], the boundary of [lower]'s shortcut. *)
let accumulation_case_gen =
  QCheck2.Gen.(
    let frontier =
      let* k = int_range 0 40 in
      let* steps = list_repeat k (pair (float_range 0.01 7.3) (float_range (-3.1) 9.7)) in
      let f = Frontier.create () in
      let ld = ref 0. and ea = ref (-5.) in
      List.iter
        (fun (dld, dea) ->
          ld := !ld +. dld;
          ea := Float.max (!ea +. 0.37) (!ld +. dea);
          ignore (Frontier.insert_pt f ~ld:!ld ~ea:!ea))
        steps;
      return f
    in
    let* frontiers = list_size (int_range 1 6) frontier in
    let* budgets = list_size (int_range 1 8) (float_range 0. 40.) in
    let* edge = int_range 0 7 in
    let* t_start = float_range (-2.) 30. in
    let* len = float_range 0. 120. in
    let budgets = List.sort compare budgets in
    (* [ea_i - ld_i] or [ea_i - ld_(i-1)] of the first frontier: the
       [lower] argument of segment i when the window does not clip it *)
    let edge_budget =
      let f = List.hd frontiers in
      let lds = Frontier.ld_arr f and eas = Frontier.ea_arr f in
      let i = edge / 2 mod max 1 (Frontier.size f) in
      let j = if edge mod 2 = 0 then i else i - 1 in
      if i >= Frontier.size f || j < 0 then None
      else
        let d = eas.(i) -. lds.(j) in
        if d >= 0. then Some d else None
    in
    let grid =
      match edge_budget with
      | None -> Array.of_list budgets
      | Some d -> Array.of_list (d :: List.filter (fun b -> b >= d) budgets)
    in
    return (frontiers, grid, t_start, t_start +. len))

(* [add_pair_frontier] and [add_pair] give the frozen accumulation's
   bits on every curve cell, the infinite-budget mass and the total. *)
let same_bits_as_frozen (frontiers, grid, t_start, t_end) =
  let frozen = Frozen_accumulation.create ~grid in
  let live = Delay_cdf.create ~grid and snapshot = Delay_cdf.create ~grid in
  List.iter
    (fun f ->
      Frozen_accumulation.add_pair_frontier frozen ~t_start ~t_end f;
      Delay_cdf.add_pair_frontier live ~t_start ~t_end f;
      Delay_cdf.add_pair snapshot ~t_start ~t_end (Frontier.to_array f))
    frontiers;
  let bits = Array.map Int64.bits_of_float in
  let want =
    ( bits (Frozen_accumulation.success frozen),
      Int64.bits_of_float (Frozen_accumulation.success_inf frozen),
      Int64.bits_of_float frozen.total )
  in
  let got acc =
    ( bits (Delay_cdf.success acc),
      Int64.bits_of_float (Delay_cdf.success_inf acc),
      Int64.bits_of_float (Delay_cdf.total_mass acc) )
  in
  if got live <> want then QCheck2.Test.fail_report "add_pair_frontier moved a bit";
  if got snapshot <> want then QCheck2.Test.fail_report "add_pair moved a bit";
  true

let accumulation_bit_identical =
  QCheck2.Test.make ~count:500 ~name:"accumulation = frozen pre-inline accumulation, bit for bit"
    accumulation_case_gen same_bits_as_frozen

(* Edge inputs for the same bit comparison, which the generator above
   rarely draws: coordinates from a small set with both zeros, so ties
   are common; grids of 1-8 budgets with repeats whose first and last
   budgets are [lower] arguments of some segment ([ea - b] or
   [ea - a], where its shortcuts and the halving loop meet); window
   bounds at a descriptor's [ld]; and a last descriptor arriving at
   [infinity]. *)
let edge_case_gen =
  QCheck2.Gen.(
    let coord = oneofl [ -0.; 0.; 0.37; 1.; 1.74; 2.; 3.11; 5. ] in
    let frontier =
      let* points = list_size (int_range 0 8) (pair coord coord) in
      let* last = oneofl [ None; Some 9.; Some infinity ] in
      let f = Frontier.create () in
      List.iter (fun (ld, ea) -> ignore (Frontier.insert_pt f ~ld ~ea)) points;
      Option.iter (fun ld -> ignore (Frontier.insert_pt f ~ld ~ea:infinity)) last;
      return f
    in
    let* frontiers = list_size (int_range 1 4) frontier in
    let lds =
      List.concat_map (fun f -> Array.to_list (Array.sub (Frontier.ld_arr f) 0 (Frontier.size f)))
        frontiers
      |> List.filter Float.is_finite
    in
    let* w1 = oneofl (lds @ [ -0.; 0.; 1.; 2.; 5. ]) in
    let* w2 = oneofl (lds @ [ -0.; 0.; 3.11; 9.; 12. ]) in
    let t_start = Float.min w1 w2 and t_end = Float.max w1 w2 in
    (* the [lower] arguments the accumulation will see *)
    let args =
      List.concat_map
        (fun f ->
          let out = ref [] and prev = ref neg_infinity in
          for i = 0 to Frontier.size f - 1 do
            let ld = (Frontier.ld_arr f).(i) and ea = (Frontier.ea_arr f).(i) in
            let a = Float.max t_start !prev and b = Float.min t_end ld in
            if b > a then out := (ea -. b) :: (ea -. a) :: !out;
            prev := ld
          done;
          !out)
        frontiers
      |> List.filter (fun d -> Float.is_finite d && not (d < 0.))
    in
    let pool = args @ [ -0.; 0.; 1.; 2.5 ] in
    let* inner = list_size (int_range 0 5) (oneofl pool) in
    let* first = oneofl pool in
    let* last = oneofl pool in
    let* dup = bool in
    let lo = Float.min first last and hi = Float.max first last in
    let inner = List.filter (fun d -> d >= lo && d <= hi) inner in
    let inner = if dup then lo :: inner else inner in
    let grid =
      Array.of_list (lo :: List.stable_sort Float.compare inner @ if hi = lo then [] else [ hi ])
    in
    return (frontiers, grid, t_start, t_end))

let edge_accumulation_bit_identical =
  QCheck2.Test.make ~count:2000 ~name:"accumulation = frozen accumulation on edge inputs, bit for bit"
    edge_case_gen same_bits_as_frozen

(* Window bounds and descriptor coordinates outside what the
   accumulation's compare-based clipping handles are refused, before
   the accumulator is touched. *)
let rejects_non_finite_inputs () =
  let f = Frontier.create () in
  ignore (Frontier.insert_pt f ~ld:2. ~ea:1.);
  ignore (Frontier.insert_pt f ~ld:6. ~ea:4.);
  let acc = Delay_cdf.create ~grid:[| 1.; 5. |] in
  let refused what msg call =
    match call () with
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
    | () -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun (t_start, t_end) ->
      let what = Printf.sprintf "window (%h, %h)" t_start t_end in
      refused ("add_pair_frontier " ^ what) "Delay_cdf.add_pair_frontier: non-finite window"
        (fun () -> Delay_cdf.add_pair_frontier acc ~t_start ~t_end f);
      refused ("add_pair " ^ what) "Delay_cdf.add_pair: non-finite window" (fun () ->
          Delay_cdf.add_pair acc ~t_start ~t_end (Frontier.to_array f)))
    [ (Float.nan, 10.); (0., Float.nan); (neg_infinity, 10.); (0., infinity); (infinity, infinity) ];
  List.iter
    (fun d ->
      refused
        (Printf.sprintf "descriptor (%h, %h)" d.Ld_ea.ld d.Ld_ea.ea)
        "Delay_cdf.add_pair: nan descriptor"
        (fun () -> Delay_cdf.add_pair acc ~t_start:0. ~t_end:10. [| Ld_ea.make ~ld:1. ~ea:0.; d |]))
    [ { Ld_ea.ld = Float.nan; ea = 3. }; { Ld_ea.ld = 4.; ea = Float.nan } ];
  Util.check_float "nothing accumulated" 0. (Delay_cdf.total_mass acc);
  Alcotest.(check (array (float 0.))) "curve untouched" [| 0.; 0. |] (Delay_cdf.success acc)

(* Accumulation allocates per pair, not per descriptor: the stored
   [total] and [inf_mass] box two floats (4 words); before [lower] and
   [add_segment] were inlined, a 1,000-point frontier cost 11,828. *)
let add_pair_frontier_allocation () =
  let f = Frontier.create () in
  for i = 0 to 999 do
    ignore (Frontier.insert_pt f ~ld:(2. *. float i) ~ea:(3. *. float i))
  done;
  let acc = Delay_cdf.create ~grid:(Omn_stats.Grid.logarithmic ~lo:1. ~hi:3000. ~n:100) in
  Delay_cdf.add_pair_frontier acc ~t_start:0. ~t_end:2000. f;
  let calls = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Delay_cdf.add_pair_frontier acc ~t_start:0. ~t_end:2000. f
  done;
  let per_call = (Gc.minor_words () -. before) /. float calls in
  if per_call > 16. then
    Alcotest.failf "add_pair_frontier on 1,000 points allocates %.1f minor words per call (max 16)"
      per_call

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

(* The fold state merges each partial once every lower position has
   been merged and holds the rest, so the curves are [fold]'s, bit for
   bit, whatever order the partials arrive in and whichever of them do:
   a pool delivers them in completion order, and a budget-truncated run
   completes a subset. On fractional times a merge in arrival order
   would move bits; each case feeds one plan's partials in a random
   order, all of them or a random subset, and compares every float of
   the curves through its bits. *)
let curve_bits (c : Delay_cdf.curves) =
  let bits = Array.map Int64.bits_of_float in
  ( Array.map bits c.hop_success,
    bits c.hop_success_inf,
    bits c.flood_success,
    Int64.bits_of_float c.flood_success_inf,
    c.max_rounds_used )

let fold_state_matches_fold =
  QCheck2.Test.make ~count:150 ~name:"fold state = fold, bit for bit, in any arrival order"
    QCheck2.Gen.(quad int (int_range 3 10) bool int)
    (fun (seed, n, subset, order_seed) ->
      let rng = Rng.create seed in
      let trace = Util.random_trace ~scale:0.37 rng ~n ~m:(10 + Rng.int rng 60) ~horizon:120 in
      let sources = Array.init n Fun.id in
      Rng.shuffle rng sources;
      let plan =
        match
          Delay_cdf.plan ~max_hops:3 ~grid:[| 1.; 4.; 15.; 40. |] ~sources:(Array.to_list sources)
            trace
        with
        | Ok p -> p
        | Error e -> QCheck2.Test.fail_reportf "plan: %s" e.Omn_robust.Err.msg
      in
      let parts = Array.mapi (fun pos s -> (pos, Delay_cdf.partial_of plan s)) sources in
      let order_rng = Rng.create order_seed in
      Rng.shuffle order_rng parts;
      let arrived =
        if subset then List.filter (fun _ -> Rng.bool order_rng) (Array.to_list parts)
        else Array.to_list parts
      in
      let st = Delay_cdf.fold_state plan in
      List.iter (fun (pos, p) -> Delay_cdf.fold_add st pos p) arrived;
      let got = Delay_cdf.fold_finish st in
      if curve_bits got <> curve_bits (Delay_cdf.fold plan arrived) then
        QCheck2.Test.fail_reportf "seed %d n %d subset %b order %d: curves differ from fold" seed
          n subset order_seed;
      true)

let suite =
  [
    Alcotest.test_case "rejects bad grids" `Quick rejects_bad_grid;
    Alcotest.test_case "add_pair_frontier allocates per pair, not per descriptor" `Quick
      add_pair_frontier_allocation;
    Alcotest.test_case "merge distributes over pairs" `Quick merge_distributes;
    Alcotest.test_case "merge order is the caller's source order" `Quick
      merge_order_is_caller_position;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        accumulator_matches_measures; success_monotone_in_budget; curves_coherent;
        compute_matches_journeys; parallel_matches_sequential; parallel_bit_identical;
        accumulation_bit_identical;
      ]
  @ [
      Alcotest.test_case "non-finite windows and NaN descriptors refused" `Quick
        rejects_non_finite_inputs;
      QCheck_alcotest.to_alcotest edge_accumulation_bit_identical;
      QCheck_alcotest.to_alcotest fold_state_matches_fold;
    ]
