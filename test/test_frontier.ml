open Omn_core

(* Reference implementation: keep every point, filter dominated, sort. *)
let naive_pareto points =
  let keep p =
    not (List.exists (fun q -> (not (Ld_ea.equal p q)) && Ld_ea.dominates q p) points)
  in
  points |> List.filter keep |> List.sort_uniq Ld_ea.compare

let frontier_of_list points =
  let f = Frontier.create () in
  List.iter (fun p -> ignore (Frontier.insert f p)) points;
  f

(* The boxed-record frontier this repository shipped before the
   structure-of-arrays rewrite, kept verbatim (minus metrics) as a
   differential oracle: both implementations must produce identical
   [to_array] output on every insert sequence. *)
module Old_frontier = struct
  type t = { mutable data : Ld_ea.t array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let to_array t = Array.sub t.data 0 t.size

  let lower_ld t x =
    let lo = ref 0 and hi = ref t.size in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.data.(mid).Ld_ea.ld >= x then hi := mid else lo := mid + 1
    done;
    !lo

  let ensure_capacity t =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let fresh = Array.make (max 8 (2 * cap)) Ld_ea.identity in
      Array.blit t.data 0 fresh 0 t.size;
      t.data <- fresh
    end

  let insert t (p : Ld_ea.t) =
    let i = lower_ld t p.ld in
    if i < t.size && t.data.(i).Ld_ea.ea <= p.ea then false
    else begin
      let j =
        let lo = ref 0 and hi = ref i in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if t.data.(mid).Ld_ea.ea >= p.ea then hi := mid else lo := mid + 1
        done;
        !lo
      in
      let k = if i < t.size && t.data.(i).Ld_ea.ld = p.ld then i + 1 else i in
      let removed = k - j in
      if removed = 0 then begin
        ensure_capacity t;
        Array.blit t.data j t.data (j + 1) (t.size - j);
        t.data.(j) <- p;
        t.size <- t.size + 1
      end
      else begin
        t.data.(j) <- p;
        if removed > 1 then begin
          Array.blit t.data k t.data (j + 1) (t.size - k);
          t.size <- t.size - removed + 1
        end
      end;
      true
    end
end

let point_gen =
  QCheck2.Gen.(
    let coord = map float_of_int (int_range (-8) 8) in
    map2 (fun ld ea -> Ld_ea.make ~ld ~ea) coord coord)

let points_gen = QCheck2.Gen.(list_size (int_range 0 40) point_gen)

(* Four insert-sequence families, each stressing a different part of the
   SoA insert: arbitrary floats (no ties), a coarse integer grid
   (equal-ld/equal-ea ties), contact-shaped candidates in trace order
   (what [Journey] actually emits: ea = contact start ascending,
   ld = contact end), and a tiny grid where most inserts dominate
   several members at once (long eviction runs through the blits). *)
let uniform_gen =
  QCheck2.Gen.(
    let coord = float_range (-1000.) 1000. in
    list_size (int_range 0 60) (map2 (fun ld ea -> Ld_ea.make ~ld ~ea) coord coord))

let contact_like_gen =
  QCheck2.Gen.(
    map
      (fun raw ->
        let starts = List.sort compare raw in
        List.map (fun (s, d) -> Ld_ea.make ~ld:(s +. d) ~ea:s) starts)
      (list_size (int_range 0 60) (pair (float_range 0. 500.) (float_range 0. 50.))))

let eviction_heavy_gen =
  QCheck2.Gen.(
    let coord = map float_of_int (int_range (-3) 3) in
    list_size (int_range 0 60) (map2 (fun ld ea -> Ld_ea.make ~ld ~ea) coord coord))

let families =
  [
    ("uniform", uniform_gen); ("grid", points_gen); ("contact-like", contact_like_gen);
    ("eviction-heavy", eviction_heavy_gen);
  ]

let matches_naive =
  QCheck2.Test.make ~count:500 ~name:"frontier = naive Pareto filter" points_gen (fun points ->
      let fast = Frontier.to_array (frontier_of_list points) |> Array.to_list in
      let slow = naive_pareto points in
      fast = slow)

let invariant_holds =
  QCheck2.Test.make ~count:500 ~name:"frontier invariant after random inserts" points_gen
    (fun points ->
      Frontier.check_invariant (frontier_of_list points);
      true)

let order_independent =
  QCheck2.Test.make ~count:300 ~name:"frontier independent of insertion order"
    QCheck2.Gen.(pair points_gen (int_bound 1000))
    (fun (points, seed) ->
      let shuffled =
        let a = Array.of_list points in
        Omn_stats.Rng.shuffle (Omn_stats.Rng.create seed) a;
        Array.to_list a
      in
      Frontier.equal (frontier_of_list points) (frontier_of_list shuffled))

let insert_reports_change =
  QCheck2.Test.make ~count:300 ~name:"insert returns true iff point becomes a member"
    QCheck2.Gen.(pair points_gen point_gen)
    (fun (points, p) ->
      let f = frontier_of_list points in
      let changed = Frontier.insert f p in
      let members = Frontier.to_array f |> Array.to_list in
      changed = List.exists (Ld_ea.equal p) members
      || (not changed)
         && List.exists (fun q -> Ld_ea.dominates q p) (naive_pareto (p :: points)))

(* Per-family properties: the SoA frontier against the naive O(n^2)
   reference, against the pre-rewrite boxed implementation, and its own
   invariant after every sequence. [check_invariant] raises
   [Invalid_argument] (not [assert], so a -noassert build still checks)
   and any raise fails the property. *)
let family_props =
  List.concat_map
    (fun (fam, gen) ->
      [
        QCheck2.Test.make ~count:300
          ~name:(Printf.sprintf "[%s] SoA = naive Pareto filter" fam)
          gen
          (fun points ->
            let f = frontier_of_list points in
            Frontier.check_invariant f;
            Frontier.to_array f |> Array.to_list = naive_pareto points);
        QCheck2.Test.make ~count:300
          ~name:(Printf.sprintf "[%s] SoA = pre-rewrite boxed frontier" fam)
          gen
          (fun points ->
            let old = Old_frontier.create () in
            List.iter (fun p -> ignore (Old_frontier.insert old p)) points;
            Frontier.to_array (frontier_of_list points) = Old_frontier.to_array old);
        QCheck2.Test.make ~count:200
          ~name:(Printf.sprintf "[%s] insert_pt agrees with insert" fam)
          gen
          (fun points ->
            let f1 = Frontier.create () and f2 = Frontier.create () in
            List.for_all
              (fun (p : Ld_ea.t) ->
                Frontier.insert f1 p = Frontier.insert_pt f2 ~ld:p.ld ~ea:p.ea)
              points
            && Frontier.equal f1 f2);
      ])
    families

(* [clear] resets the membership but keeps the capacity; a cleared
   frontier refilled with a second sequence must be indistinguishable
   from a fresh one — this is the reuse pattern the [Journey] scratch
   deltas depend on. *)
let clear_reuse =
  QCheck2.Test.make ~count:300 ~name:"clear + refill = fresh frontier"
    QCheck2.Gen.(pair uniform_gen points_gen)
    (fun (first, second) ->
      let f = frontier_of_list first in
      Frontier.clear f;
      Frontier.is_empty f
      &&
      (List.iter (fun p -> ignore (Frontier.insert f p)) second;
       Frontier.check_invariant f;
       Frontier.equal f (frontier_of_list second)))

(* [copy_into] must overwrite whatever the destination held, reusing its
   arrays when they are big enough. *)
let copy_into_overwrites =
  QCheck2.Test.make ~count:300 ~name:"copy_into overwrites destination"
    QCheck2.Gen.(pair uniform_gen uniform_gen)
    (fun (src_pts, dst_pts) ->
      let src = frontier_of_list src_pts and dst = frontier_of_list dst_pts in
      Frontier.copy_into ~src ~dst;
      Frontier.check_invariant dst;
      Frontier.equal src dst)

(* [lower_ld_from] against a linear scan: from every hint, including
   stale ones past the end, the finger search returns the first index
   with [ld >= x]. Frontiers reach 2,000 points so that the doubling
   steps run long; queries fall below, on, between and above the
   members, at both zeros (a member may be -0. or 0.) and at the
   infinities, and NaN must give [size]. *)
let finger_search_gen =
  QCheck2.Gen.(
    let* size = frequency [ (1, int_range 0 16); (2, int_range 0 2000) ] in
    let* start = int_range (-size) 0 in
    let* steps = list_repeat size (int_range 1 3) in
    let* neg_zero = bool in
    let* picks = list_repeat 12 (int_range 0 (max 0 (size - 1))) in
    let lds =
      let at = ref start in
      Array.of_list
        (List.map
           (fun step ->
             let ld = if !at = 0 && neg_zero then -0. else 0.5 *. float_of_int !at in
             at := !at + step;
             ld)
           steps)
    in
    return (lds, picks))

let finger_search_matches_scan =
  QCheck2.Test.make ~count:100 ~name:"lower_ld_from = linear scan, from every hint"
    finger_search_gen (fun (lds, picks) ->
      let f = Frontier.create () in
      Array.iteri (fun i ld -> ignore (Frontier.insert_pt f ~ld ~ea:((2. *. ld) +. float i))) lds;
      let size = Frontier.size f in
      if size <> Array.length lds then
        QCheck2.Test.fail_reportf "built %d of %d points" size (Array.length lds);
      let scan x =
        let rec go i = if i = size || lds.(i) >= x then i else go (i + 1) in
        go 0
      in
      let queries =
        [ 0.; -0.; Float.nan; infinity; neg_infinity ]
        @ (if size = 0 then []
          else [ lds.(0) -. 1.; lds.(size - 1); lds.(size - 1) +. 1. ])
        @ List.concat_map
            (fun k ->
              if size = 0 then []
              else lds.(k) :: (if k > 0 then [ (lds.(k - 1) +. lds.(k)) /. 2. ] else []))
            picks
      in
      List.iter
        (fun x ->
          let want = if Float.is_nan x then size else scan x in
          for hint = -2 to size + 3 do
            let got = Frontier.lower_ld_from f ~hint x in
            if got <> want then
              QCheck2.Test.fail_reportf "size %d, x %h, hint %d: got %d, want %d" size x hint
                got want
          done)
        queries;
      true)

let unit_tests =
  let p ld ea = Ld_ea.make ~ld ~ea in
  [
    Alcotest.test_case "empty frontier delivers nothing" `Quick (fun () ->
        let f = Frontier.create () in
        Util.check_float "delivery" infinity (Frontier.delivery f 0.);
        Alcotest.(check bool) "empty" true (Frontier.is_empty f));
    Alcotest.test_case "single point delivery" `Quick (fun () ->
        let f = Frontier.create () in
        ignore (Frontier.insert f (p 5. 3.));
        Util.check_float "before ea" 3. (Frontier.delivery f 1.);
        Util.check_float "between" 4. (Frontier.delivery f 4.);
        Util.check_float "at ld" 5. (Frontier.delivery f 5.);
        Util.check_float "after ld" infinity (Frontier.delivery f 5.1));
    Alcotest.test_case "dominated insert is rejected" `Quick (fun () ->
        let f = Frontier.create () in
        ignore (Frontier.insert f (p 5. 3.));
        Alcotest.(check bool) "rejected" false (Frontier.insert f (p 4. 4.));
        Alcotest.(check bool) "duplicate rejected" false (Frontier.insert f (p 5. 3.));
        Alcotest.(check int) "size" 1 (Frontier.size f));
    Alcotest.test_case "dominating insert evicts a run" `Quick (fun () ->
        let f = Frontier.create () in
        ignore (Frontier.insert f (p 1. 5.));
        ignore (Frontier.insert f (p 2. 6.));
        ignore (Frontier.insert f (p 3. 7.));
        ignore (Frontier.insert f (p 9. 9.));
        Alcotest.(check bool) "inserted" true (Frontier.insert f (p 4. 5.));
        (* (4,5) evicts (1,5), (2,6) and (3,7) but not (9,9). *)
        Alcotest.(check int) "size" 2 (Frontier.size f);
        Frontier.check_invariant f);
    Alcotest.test_case "queries" `Quick (fun () ->
        let f = frontier_of_list [ p 1. 0.; p 4. 2.; p 8. 7. ] in
        (match Frontier.first_ld_geq f 2. with
        | Some q -> Alcotest.(check bool) "first_ld_geq" true (Ld_ea.equal q (p 4. 2.))
        | None -> Alcotest.fail "expected Some");
        (match Frontier.last_ea_leq f 2. with
        | Some q -> Alcotest.(check bool) "last_ea_leq" true (Ld_ea.equal q (p 4. 2.))
        | None -> Alcotest.fail "expected Some");
        let seen = ref [] in
        Frontier.iter_ea_in f ~lo:0. ~hi:7. (fun q -> seen := q :: !seen);
        Alcotest.(check int) "iter_ea_in count" 2 (List.length !seen));
    Alcotest.test_case "ld_ea algebra" `Quick (fun () ->
        let a = p 5. 3. and b = p 10. 7. in
        Alcotest.(check bool) "can_concat" true (Ld_ea.can_concat a b);
        (match Ld_ea.concat a b with
        | Some c -> Alcotest.(check bool) "concat value" true (Ld_ea.equal c (p 5. 7.))
        | None -> Alcotest.fail "expected concat");
        Alcotest.(check bool) "cannot concat" false (Ld_ea.can_concat b a);
        (match Ld_ea.concat Ld_ea.identity a with
        | Some c -> Alcotest.(check bool) "left identity" true (Ld_ea.equal c a)
        | None -> Alcotest.fail "identity concat");
        (match Ld_ea.concat a Ld_ea.identity with
        | Some c -> Alcotest.(check bool) "right identity" true (Ld_ea.equal c a)
        | None -> Alcotest.fail "identity concat"));
    Alcotest.test_case "nan coordinates are rejected with a raise" `Quick (fun () ->
        let f = Frontier.create () in
        Alcotest.check_raises "nan ld" (Invalid_argument "Frontier.insert: nan") (fun () ->
            ignore (Frontier.insert_pt f ~ld:Float.nan ~ea:0.));
        Alcotest.check_raises "nan ea" (Invalid_argument "Frontier.insert: nan") (fun () ->
            ignore (Frontier.insert_pt f ~ld:0. ~ea:Float.nan));
        Alcotest.(check bool) "still empty" true (Frontier.is_empty f));
    Alcotest.test_case "paper concatenation counterexample shape" `Quick (fun () ->
        (* Two individually valid sequences that cannot be concatenated:
           EA(first) > LD(second). *)
        let first = p 2. 5. (* store-and-forward: ea > ld *) in
        let second = p 1. 1. in
        Alcotest.(check bool) "invalid" false (Ld_ea.can_concat first second));
  ]

let props =
  [ matches_naive; invariant_holds; order_independent; insert_reports_change ]
  @ family_props
  @ [ clear_reuse; copy_into_overwrites; finger_search_matches_scan ]
let suite = unit_tests @ List.map QCheck_alcotest.to_alcotest props
