module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact
module Heap = Omn_stats.Heap

let earliest_arrival trace ~source ~t0 =
  let n = Trace.n_nodes trace in
  if source < 0 || source >= n then invalid_arg "Dijkstra: bad source";
  let arrival = Array.make n infinity in
  arrival.(source) <- t0;
  let cmp (t1, _) (t2, _) = Float.compare t1 t2 in
  let heap = Heap.create ~cmp in
  Heap.push heap (t0, source);
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (t, u) ->
      if t <= arrival.(u) then
        Trace.iter_node_contacts
          (fun (c : Contact.t) ->
            if t <= c.t_end then begin
              let v = Contact.peer c u in
              let reach = Float.max t c.t_beg in
              if reach < arrival.(v) then begin
                arrival.(v) <- reach;
                Heap.push heap (reach, v)
              end
            end)
          trace u;
      drain ()
  in
  drain ();
  arrival

let earliest_arrival_bounded trace ~source ~t0 ~max_hops =
  let n = Trace.n_nodes trace in
  if source < 0 || source >= n then invalid_arg "Dijkstra: bad source";
  if max_hops < 0 then invalid_arg "Dijkstra: negative hop bound";
  let rows = Array.make_matrix (max_hops + 1) n infinity in
  rows.(0).(source) <- t0;
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  for k = 1 to max_hops do
    let prev = rows.(k - 1) and cur = rows.(k) in
    Array.blit prev 0 cur 0 n;
    for i = 0 to Array.length csr_a - 1 do
      let a = csr_a.(i) and b = csr_b.(i) and tb = csr_beg.(i) and te = csr_end.(i) in
      if prev.(a) <= te then begin
        let reach = Float.max prev.(a) tb in
        if reach < cur.(b) then cur.(b) <- reach
      end;
      if prev.(b) <= te then begin
        let reach = Float.max prev.(b) tb in
        if reach < cur.(a) then cur.(a) <- reach
      end
    done
  done;
  rows

let min_delay trace ~source ~dest ~t0 =
  let arrival = earliest_arrival trace ~source ~t0 in
  arrival.(dest) -. t0
