module Trace = Omn_temporal.Trace

(* Between two consecutive contact boundaries the delivery function of any
   pair is governed by a single (LD, EA) descriptor (all LDs are contact
   ends, all EAs are contact begins), so on such a segment it is either
   the constant EA or the diagonal. A flood started from the segment's
   midpoint m distinguishes the two: arrival > m means the constant,
   arrival = m means the diagonal. Floods from the boundaries themselves
   answer exact-boundary creation times. *)

type t = {
  source : int;
  boundaries : float array;          (* ascending, distinct; first = trace start *)
  boundary_arr : float array array;  (* flood from each boundary *)
  mid_arr : float array array;       (* mid_arr.(j): flood from midpoint of
                                        (boundaries.(j-1), boundaries.(j)); row 0 unused *)
  midpoints : float array;
}

let compute trace ~source =
  let { Trace.csr_beg; csr_end; _ } = Trace.time_csr trace in
  let times = ref [ Trace.t_start trace ] in
  for i = 0 to Array.length csr_beg - 1 do
    times := csr_beg.(i) :: csr_end.(i) :: !times
  done;
  let times = List.sort_uniq Float.compare !times in
  let boundaries = Array.of_list times in
  let flood t0 = Dijkstra.earliest_arrival trace ~source ~t0 in
  let boundary_arr = Array.map flood boundaries in
  let n = Array.length boundaries in
  let midpoints =
    Array.init n (fun j -> if j = 0 then nan else (boundaries.(j - 1) +. boundaries.(j)) /. 2.)
  in
  let mid_arr = Array.init n (fun j -> if j = 0 then [||] else flood midpoints.(j)) in
  { source; boundaries; boundary_arr; mid_arr; midpoints }

(* Smallest index with boundaries.(i) >= x, or length. *)
let lower t x =
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.boundaries.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

let del t ~dest at =
  if dest = t.source then at
  else begin
    let n = Array.length t.boundaries in
    let i = lower t at in
    if i >= n then infinity
    else if t.boundaries.(i) = at then t.boundary_arr.(i).(dest)
    else if i = 0 then begin
      (* Before the first boundary: same descriptor set as at it. *)
      let d = t.boundary_arr.(0).(dest) in
      if d > t.boundaries.(0) then d else Float.max at d
    end
    else begin
      let m = t.midpoints.(i) in
      let d = t.mid_arr.(i).(dest) in
      if d > m then Float.max at d else at
    end
  end

let samples t ~dest = Array.map2 (fun b row -> (b, row.(dest))) t.boundaries t.boundary_arr
