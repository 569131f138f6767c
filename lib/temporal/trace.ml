(* Immutable after construction: the adjacency index is CSR-packed
   eagerly in [create], so traces can be shared freely across domains
   with no synchronisation (there used to be a lazily filled [mutable
   adjacency] cell here — a data race whenever two domains forced it
   concurrently). *)
type time_csr = {
  csr_a : int array;
  csr_b : int array;
  csr_beg : float array;
  csr_end : float array;
  csr_prev : int array;
}

type t = {
  label : string;
  n_nodes : int;
  t_start : float;
  t_end : float;
  contacts : Contact.t array;
  adj_off : int array; (* length n_nodes + 1; row u = [off.(u), off.(u+1)) *)
  adj_idx : int array; (* length 2 * n_contacts; indices into [contacts], ascending per row *)
  csr : time_csr;      (* the same contacts, unboxed SoA in time order *)
}

module Err = Omn_robust.Err

(* CSR construction by counting sort. [contacts] is already sorted by
   start time and every node id validated, so appending indices in
   array order leaves each row ascending, hence in start order too. *)
let build_index ~n_nodes contacts =
  let off = Array.make (n_nodes + 1) 0 in
  Array.iter
    (fun (c : Contact.t) ->
      off.(c.a + 1) <- off.(c.a + 1) + 1;
      off.(c.b + 1) <- off.(c.b + 1) + 1)
    contacts;
  for u = 1 to n_nodes do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let idx = Array.make (2 * Array.length contacts) 0 in
  let cursor = Array.sub off 0 n_nodes in
  Array.iteri
    (fun i (c : Contact.t) ->
      idx.(cursor.(c.a)) <- i;
      cursor.(c.a) <- cursor.(c.a) + 1;
      idx.(cursor.(c.b)) <- i;
      cursor.(c.b) <- cursor.(c.b) + 1)
    contacts;
  (off, idx)

(* [prev.(i)]: the latest contact before [i] between the same two
   nodes, or -1. Every contact of a pair sits in the row of its lower
   node, in ascending index order, so one walk per row links them
   through [last.(v)], the slot of the row's latest contact with [v]
   so far. Slots only grow from row to row, so one below the row's
   offset is stale, and the table needs no reset: O(n_nodes) scratch.
   A self-contact would meet itself in its own row; [create] rejects
   those. *)
let build_prev ~n_nodes ~off ~idx csr_a csr_b =
  let prev = Array.make (Array.length csr_a) (-1) in
  let last = Array.make n_nodes (-1) in
  for u = 0 to n_nodes - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      let i = idx.(k) in
      let v = csr_a.(i) + csr_b.(i) - u in
      if v > u then begin
        if last.(v) >= off.(u) then prev.(i) <- idx.(last.(v));
        last.(v) <- k
      end
    done
  done;
  prev

(* Time-indexed CSR: the contact multiset flattened into parallel
   unboxed arrays in start-time order. A mixed int/float record like
   [Contact.t] stores its float fields boxed, so sweeping [contacts]
   dereferences two heap boxes per contact; the SoA mirror turns the
   per-round relaxation sweep of [Omn_core.Journey] into sequential
   array reads. *)
let build_time_csr ~n_nodes ~off ~idx (contacts : Contact.t array) =
  let m = Array.length contacts in
  let csr_a = Array.make m 0 and csr_b = Array.make m 0 in
  let csr_beg = Array.make m 0. and csr_end = Array.make m 0. in
  Array.iteri
    (fun i (c : Contact.t) ->
      csr_a.(i) <- c.a;
      csr_b.(i) <- c.b;
      csr_beg.(i) <- c.t_beg;
      csr_end.(i) <- c.t_end)
    contacts;
  let csr_prev = build_prev ~n_nodes ~off ~idx csr_a csr_b in
  { csr_a; csr_b; csr_beg; csr_end; csr_prev }

let create_array_result ?(name = "trace") ~n_nodes ~t_start ~t_end contacts =
  let exception Bad of Err.t in
  try
    if n_nodes < 0 then raise (Bad (Err.errf Err.Range "Trace.create: n_nodes < 0 (%d)" n_nodes));
    if t_start > t_end then
      raise
        (Bad (Err.errf Err.Window "Trace.create: reversed window [%g; %g]" t_start t_end));
    Array.iter
      (fun (c : Contact.t) ->
        (* Both endpoints, both bounds: [Contact.make] canonicalises to
           [0 <= a < b], but contacts can reach us through [Marshal] or
           other private-constructor bypasses, and the index construction
           below would crash on them instead of reporting a typed error. *)
        if c.a < 0 || c.a >= n_nodes || c.b < 0 || c.b >= n_nodes then
          raise
            (Bad
               (Err.errf Err.Range "Trace.create: node id %d out of range (n_nodes = %d)"
                  (if c.a < 0 || c.a >= n_nodes then c.a else c.b)
                  n_nodes));
        (* [Contact.make] refuses [a = b] too. A forged self-contact
           would sit twice in its node's row and link to itself in
           [build_prev], where [Omn_core.Journey] would read it as an
           earlier contact of the same pair. *)
        if c.a = c.b then
          raise (Bad (Err.errf Err.Range "Trace.create: self-contact on node %d" c.a));
        (* Negated so that NaN fails too. [Omn_core.Journey]'s sweep
           relies on [t_beg <= t_end] and on the start-order sort, and a
           NaN bound slips past the window test below. *)
        if not (c.t_beg <= c.t_end) then
          raise
            (Bad
               (Err.errf Err.Window "Trace.create: contact [%g; %g] has reversed or NaN bounds"
                  c.t_beg c.t_end));
        if c.t_beg < t_start || c.t_end > t_end then
          raise
            (Bad
               (Err.errf Err.Window
                  "Trace.create: contact [%g; %g] outside window [%g; %g]" c.t_beg c.t_end
                  t_start t_end)))
      contacts;
    Array.sort Contact.compare_by_start contacts;
    let adj_off, adj_idx = build_index ~n_nodes contacts in
    let csr = build_time_csr ~n_nodes ~off:adj_off ~idx:adj_idx contacts in
    Ok { label = name; n_nodes; t_start; t_end; contacts; adj_off; adj_idx; csr }
  with Bad e -> Error e

let create_result ?name ~n_nodes ~t_start ~t_end contact_list =
  create_array_result ?name ~n_nodes ~t_start ~t_end (Array.of_list contact_list)

let create ?name ~n_nodes ~t_start ~t_end contact_list =
  match create_result ?name ~n_nodes ~t_start ~t_end contact_list with
  | Ok t -> t
  | Error e -> invalid_arg (Err.to_string e)

let name t = t.label
let with_name t label = { t with label }
let n_nodes t = t.n_nodes
let t_start t = t.t_start
let t_end t = t.t_end
let span t = t.t_end -. t.t_start
let n_contacts t = Array.length t.contacts
let contacts t = t.contacts
let contact t i = t.contacts.(i)
let iter f t = Array.iter f t.contacts
let fold f init t = Array.fold_left f init t.contacts

let check_node t u fn =
  if u < 0 || u >= t.n_nodes then invalid_arg ("Trace." ^ fn ^ ": bad node")

let degree t u =
  check_node t u "degree";
  t.adj_off.(u + 1) - t.adj_off.(u)

let node_contacts t u =
  check_node t u "node_contacts";
  let off = t.adj_off.(u) in
  Array.init (t.adj_off.(u + 1) - off) (fun k -> t.contacts.(t.adj_idx.(off + k)))

let iter_node_contacts f t u =
  check_node t u "iter_node_contacts";
  for k = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    f t.contacts.(t.adj_idx.(k))
  done

let fold_node_contacts f init t u =
  check_node t u "fold_node_contacts";
  let acc = ref init in
  for k = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    acc := f !acc t.contacts.(t.adj_idx.(k))
  done;
  !acc

let pair_contacts t u v =
  let u, v = if u < v then (u, v) else (v, u) in
  check_node t v "pair_contacts";
  List.rev
    (fold_node_contacts
       (fun acc (c : Contact.t) -> if c.a = u && c.b = v then c :: acc else acc)
       [] t u)

let time_csr t = t.csr

let contact_rate t =
  let duration = span t in
  if t.n_nodes = 0 || duration <= 0. then 0.
  else 2. *. float_of_int (n_contacts t) /. (float_of_int t.n_nodes *. duration)

let active_nodes t =
  let count = ref 0 in
  for u = 0 to t.n_nodes - 1 do
    if t.adj_off.(u + 1) > t.adj_off.(u) then incr count
  done;
  !count

let pp_summary fmt t =
  Format.fprintf fmt "@[<h>%s: %d nodes, %d contacts, window [%g; %g] (%s), rate %.3g/node/day@]"
    t.label t.n_nodes (n_contacts t) t.t_start t.t_end
    (Omn_stats.Timefmt.duration (span t))
    (contact_rate t *. 86400.)
