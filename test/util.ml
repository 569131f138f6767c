(* Shared helpers for the test suites. *)

module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

let trace_of_contacts ?(n_nodes = 0) ?(t_start = 0.) ?t_end contacts =
  let n_nodes =
    List.fold_left (fun acc (a, b, _, _) -> max acc (max a b + 1)) n_nodes contacts
  in
  let t_end =
    match t_end with
    | Some t -> t
    | None -> List.fold_left (fun acc (_, _, _, te) -> Float.max acc te) t_start contacts
  in
  let contacts =
    List.map (fun (a, b, t_beg, t_end) -> Contact.make ~a ~b ~t_beg ~t_end) contacts
  in
  Trace.create ~n_nodes ~t_start ~t_end contacts

(* A random small trace: n nodes, m contacts with integer-ish bounds in
   [0, horizon], durations geometric-ish. Integer grid keeps ties and
   exact-equality corner cases frequent, which is what we want to test.
   [scale] multiplies every time: on integer times, float sums are exact
   in any order, so a bit-identity check that must tell merge orders
   apart needs a fractional scale (e.g. 0.37). *)
let random_trace ?(scale = 1.) rng ~n ~m ~horizon =
  let contacts = ref [] in
  let made = ref 0 in
  while !made < m do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      let t_beg = float_of_int (Rng.int rng horizon) in
      let dur = float_of_int (Rng.int rng (max 1 (horizon / 4))) in
      let t_end = Float.min (float_of_int horizon) (t_beg +. dur) in
      contacts := (min a b, max a b, scale *. t_beg, scale *. t_end) :: !contacts;
      incr made
    end
  done;
  trace_of_contacts ~n_nodes:n ~t_start:0. ~t_end:(scale *. float_of_int horizon) !contacts

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let check_float ?(eps = 1e-9) msg expected actual =
  if expected = infinity || actual = infinity then
    Alcotest.(check bool) (msg ^ " (inf)") (expected = infinity) (actual = infinity)
  else if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* The chain: 1,030 nodes, contact i–(i+1) at time i (scaled by
   [scale]). Flooding from source s takes 1,029 − s hops, so source 0's
   fixpoint takes 1,029 rounds: the most [Journey.run]'s round bound of
   [n_nodes] allows, and more than any constant cap of 1,024. A
   fractional [scale] makes the curves depend on merge order. *)
let chain_nodes = 1030

let chain_trace ?(scale = 1.) () =
  trace_of_contacts
    (List.init (chain_nodes - 1) (fun i ->
         let t = scale *. float_of_int i in
         (i, i + 1, t, t)))
