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
}

type t = {
  label : string;
  n_nodes : int;
  t_start : float;
  t_end : float;
  contacts : Contact.t array;
  adj_off : int array;        (* length n_nodes + 1; row u = [off.(u), off.(u+1)) *)
  adj_pack : Contact.t array; (* length 2 * n_contacts; rows sorted by start *)
  csr : time_csr;             (* the same contacts, unboxed SoA in time order *)
}

module Err = Omn_robust.Err

(* CSR construction by counting sort. [contacts] is already sorted by
   start time and every node id validated, so appending in array order
   leaves each row sorted too. *)
let build_index ~n_nodes contacts =
  let m = Array.length contacts in
  let off = Array.make (n_nodes + 1) 0 in
  Array.iter
    (fun (c : Contact.t) ->
      off.(c.a + 1) <- off.(c.a + 1) + 1;
      off.(c.b + 1) <- off.(c.b + 1) + 1)
    contacts;
  for u = 1 to n_nodes do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  if m = 0 then (off, [||])
  else begin
    let pack = Array.make (2 * m) contacts.(0) in
    let cursor = Array.sub off 0 n_nodes in
    Array.iter
      (fun (c : Contact.t) ->
        pack.(cursor.(c.a)) <- c;
        cursor.(c.a) <- cursor.(c.a) + 1;
        pack.(cursor.(c.b)) <- c;
        cursor.(c.b) <- cursor.(c.b) + 1)
      contacts;
    (off, pack)
  end

(* Time-indexed CSR: the contact multiset flattened into four parallel
   unboxed arrays in start-time order. A mixed int/float record like
   [Contact.t] stores its float fields boxed, so sweeping [contacts]
   dereferences two heap boxes per contact; the SoA mirror turns the
   per-round relaxation sweep of [Omn_core.Journey] into four
   sequential array reads. *)
let build_time_csr (contacts : Contact.t array) =
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
  { csr_a; csr_b; csr_beg; csr_end }

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
    let adj_off, adj_pack = build_index ~n_nodes contacts in
    let csr = build_time_csr contacts in
    Ok { label = name; n_nodes; t_start; t_end; contacts; adj_off; adj_pack; csr }
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
  Array.sub t.adj_pack t.adj_off.(u) (t.adj_off.(u + 1) - t.adj_off.(u))

let iter_node_contacts f t u =
  check_node t u "iter_node_contacts";
  for i = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    f t.adj_pack.(i)
  done

let fold_node_contacts f init t u =
  check_node t u "fold_node_contacts";
  let acc = ref init in
  for i = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    acc := f !acc t.adj_pack.(i)
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
