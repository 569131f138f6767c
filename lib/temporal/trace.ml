(* Immutable after construction: the store is built eagerly in [create],
   so traces can be shared freely across domains with no
   synchronisation (there used to be a lazily filled [mutable
   adjacency] cell here — a data race whenever two domains forced it
   concurrently). *)
type time_csr = {
  csr_a : int array;
  csr_b : int array;
  csr_beg : float array;
  csr_end : float array;
  csr_prev : int array;
  pair_runs : int array;
  node_pair_off : int array;
  node_pairs : int array;
}

(* The SoA arrays and the per-node index are the whole store: no
   [Contact.t] is kept, the accessors below build them on demand. *)
type t = {
  label : string;
  n_nodes : int;
  t_start : float;
  t_end : float;
  adj_off : int array; (* length n_nodes + 1; row u = [off.(u), off.(u+1)) *)
  adj_idx : int array; (* length 2 * n_contacts; contact indices, ascending per row *)
  csr : time_csr;      (* the contacts, unboxed SoA in start order *)
}

module Err = Omn_robust.Err

let g_store_bytes = Omn_obs.Metrics.gauge "trace.store_bytes"

module Builder = struct
  type t = {
    mutable len : int;
    mutable a : int array;
    mutable b : int array;
    mutable t_beg : float array;
    mutable t_end : float array;
  }

  let create cap =
    {
      len = 0;
      a = Array.make cap 0;
      b = Array.make cap 0;
      t_beg = Array.make cap 0.;
      t_end = Array.make cap 0.;
    }

  let resize buf cap =
    let ints arr =
      let fresh = Array.make cap 0 in
      Array.blit arr 0 fresh 0 buf.len;
      fresh
    and floats arr =
      let fresh = Array.make cap 0. in
      Array.blit arr 0 fresh 0 buf.len;
      fresh
    in
    buf.a <- ints buf.a;
    buf.b <- ints buf.b;
    buf.t_beg <- floats buf.t_beg;
    buf.t_end <- floats buf.t_end

  let reserve buf n = if buf.len + n > Array.length buf.a then resize buf (buf.len + n)

  let[@inline] add buf ~a ~b ~t_beg ~t_end =
    let i = buf.len in
    if i = Array.length buf.a then resize buf (max 1024 (2 * i));
    buf.a.(i) <- a;
    buf.b.(i) <- b;
    buf.t_beg.(i) <- t_beg;
    buf.t_end.(i) <- t_end;
    buf.len <- i + 1
end

(* The buffer's contacts in start order, as four exact-length arrays,
   keyed by [Contact.compare_by_start]'s (t_beg, t_end, a, b). The
   bounds are validated (no NaN), so when no time is -0, keys that
   compare equal belong to bit-identical contacts and every sort by the
   key gives the same arrays. If moreover the starts never decrease,
   only the runs of equal starts can be out of order, and each one that
   is gets sorted where it lies, in O(L log L) for a run of L (a trace
   whose contacts all start at 0 is one run). Otherwise the whole
   buffer goes through [Array.sort] (a heap sort) on an index
   permutation. It places elements by comparison outcomes alone, so
   -0/+0 ties (equal keys, printed differently) land where sorting the
   records put them. *)
let in_start_order (buf : Builder.t) =
  let m = buf.len in
  let ba = buf.a and bb = buf.b and bbeg = buf.t_beg and bend = buf.t_end in
  let cmp i j =
    let c = Float.compare bbeg.(i) bbeg.(j) in
    if c <> 0 then c
    else begin
      let c = Float.compare bend.(i) bend.(j) in
      if c <> 0 then c
      else begin
        let c = Int.compare ba.(i) ba.(j) in
        if c <> 0 then c else Int.compare bb.(i) bb.(j)
      end
    end
  in
  let neg_zero x = x = 0. && Float.sign_bit x in
  let rec runs_only i =
    i >= m
    || (not (neg_zero bbeg.(i)))
       && (not (neg_zero bend.(i)))
       && (i = 0 || bbeg.(i - 1) <= bbeg.(i))
       && runs_only (i + 1)
  in
  if runs_only 0 then begin
    (* Within a run only (t_end, a, b) moves: a run out of order is
       sorted through a permutation of its own slots. *)
    let permuted lo hi =
      let perm = Array.init (hi - lo) (fun k -> lo + k) in
      Array.stable_sort cmp perm;
      let e = Array.map (Array.get bend) perm
      and a = Array.map (Array.get ba) perm
      and b = Array.map (Array.get bb) perm in
      Array.blit e 0 bend lo (hi - lo);
      Array.blit a 0 ba lo (hi - lo);
      Array.blit b 0 bb lo (hi - lo)
    in
    let rec sorted i hi = i >= hi || (cmp (i - 1) i <= 0 && sorted (i + 1) hi) in
    let rec run_end i j = if j < m && bbeg.(j) = bbeg.(i) then run_end i (j + 1) else j in
    let rec runs lo =
      if lo < m then begin
        let hi = run_end lo (lo + 1) in
        if not (sorted (lo + 1) hi) then permuted lo hi;
        runs hi
      end
    in
    runs 0;
    let trim arr = if Array.length arr = m then arr else Array.sub arr 0 m in
    (trim ba, trim bb, trim bbeg, trim bend)
  end
  else begin
    let perm = Array.init m Fun.id in
    Array.sort cmp perm;
    let ints src =
      let dst = Array.make m 0 in
      for k = 0 to m - 1 do
        dst.(k) <- src.(perm.(k))
      done;
      dst
    and floats src =
      let dst = Array.make m 0. in
      for k = 0 to m - 1 do
        dst.(k) <- src.(perm.(k))
      done;
      dst
    in
    (ints ba, ints bb, floats bbeg, floats bend)
  end

(* CSR construction by counting sort. The contacts are already in start
   order and every node id validated, so appending indices in array
   order leaves each row ascending, hence in start order too. *)
let build_index ~n_nodes csr_a csr_b =
  let m = Array.length csr_a in
  let off = Array.make (n_nodes + 1) 0 in
  for i = 0 to m - 1 do
    off.(csr_a.(i) + 1) <- off.(csr_a.(i) + 1) + 1;
    off.(csr_b.(i) + 1) <- off.(csr_b.(i) + 1) + 1
  done;
  for u = 1 to n_nodes do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let idx = Array.make (2 * m) 0 in
  let cursor = Array.sub off 0 n_nodes in
  for i = 0 to m - 1 do
    let a = csr_a.(i) and b = csr_b.(i) in
    idx.(cursor.(a)) <- i;
    cursor.(a) <- cursor.(a) + 1;
    idx.(cursor.(b)) <- i;
    cursor.(b) <- cursor.(b) + 1
  done;
  (off, idx)

(* [prev.(i)]: the latest contact before [i] between the same two
   nodes, or -1. Every contact of a pair sits in the row of its lower
   node, in ascending index order, so one walk per row links them
   through [last.(v)], the slot of the row's latest contact with [v]
   so far. Slots only grow from row to row, so one below the row's
   offset is stale, and the table needs no reset: O(n_nodes) scratch.
   A self-contact would meet itself in its own row; [create] rejects
   those.

   The same walk numbers the pairs, in the order their first contacts
   appear in the rows, and counts each pair's kept contacts: those
   whose end exceeds every earlier end of the pair ([top.(v)] within
   row [u]). A second walk, where [prev.(i) < 0] marks a pair's first
   contact, writes the pair index of [time_csr]: each pair's run (its
   count, then its kept contacts), and each node's list of run
   positions. Scratch is three n-sized tables, a cursor per node and
   the per-pair counts, which then serve as write cursors. *)
let build_links ~n_nodes ~off ~idx csr_a csr_b csr_end =
  let prev = Array.make (Array.length csr_a) (-1) in
  let last = Array.make n_nodes (-1) in
  let pid = Array.make n_nodes 0 and top = Array.make n_nodes 0. in
  let kept = ref (Array.make (max 16 n_nodes) 0) and n_pairs = ref 0 in
  let node_pair_off = Array.make (n_nodes + 1) 0 in
  for u = 0 to n_nodes - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      let i = idx.(k) in
      let v = csr_a.(i) + csr_b.(i) - u in
      if v > u then begin
        if last.(v) >= off.(u) then begin
          prev.(i) <- idx.(last.(v));
          if csr_end.(i) > top.(v) then begin
            top.(v) <- csr_end.(i);
            !kept.(pid.(v)) <- !kept.(pid.(v)) + 1
          end
        end
        else begin
          let p = !n_pairs in
          if p = Array.length !kept then begin
            let grown = Array.make (2 * p) 0 in
            Array.blit !kept 0 grown 0 p;
            kept := grown
          end;
          !kept.(p) <- 1;
          pid.(v) <- p;
          top.(v) <- csr_end.(i);
          n_pairs := p + 1;
          node_pair_off.(u + 1) <- node_pair_off.(u + 1) + 1;
          node_pair_off.(v + 1) <- node_pair_off.(v + 1) + 1
        end;
        last.(v) <- k
      end
    done
  done;
  let kept = !kept and n_pairs = !n_pairs in
  let runs_len = ref n_pairs in
  for p = 0 to n_pairs - 1 do
    runs_len := !runs_len + kept.(p)
  done;
  let pair_runs = Array.make !runs_len 0 and node_pairs = Array.make (2 * n_pairs) 0 in
  (* Each run opens with its count; [kept.(p)] becomes the write
     cursor of pair [p]'s run, just past that slot. *)
  let run = ref 0 in
  for p = 0 to n_pairs - 1 do
    let len = kept.(p) in
    pair_runs.(!run) <- len;
    kept.(p) <- !run + 1;
    run := !run + 1 + len
  done;
  for u = 1 to n_nodes do
    node_pair_off.(u) <- node_pair_off.(u) + node_pair_off.(u - 1)
  done;
  let slot = Array.sub node_pair_off 0 n_nodes and next_pair = ref 0 in
  let push p i =
    pair_runs.(kept.(p)) <- i;
    kept.(p) <- kept.(p) + 1
  in
  for u = 0 to n_nodes - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      let i = idx.(k) in
      let v = csr_a.(i) + csr_b.(i) - u in
      if v > u then begin
        if prev.(i) < 0 then begin
          let p = !next_pair in
          next_pair := p + 1;
          pid.(v) <- p;
          top.(v) <- csr_end.(i);
          let run = kept.(p) - 1 in
          node_pairs.(slot.(u)) <- run;
          slot.(u) <- slot.(u) + 1;
          node_pairs.(slot.(v)) <- run;
          slot.(v) <- slot.(v) + 1;
          push p i
        end
        else if csr_end.(i) > top.(v) then begin
          top.(v) <- csr_end.(i);
          push pid.(v) i
        end
      end
    done
  done;
  (prev, pair_runs, node_pair_off, node_pairs)

let store_bytes t =
  let c = t.csr in
  let ints =
    Array.length c.csr_a + Array.length c.csr_b + Array.length c.csr_prev
    + Array.length t.adj_idx + Array.length t.adj_off
  in
  (ints * (Sys.word_size / 8)) + ((Array.length c.csr_beg + Array.length c.csr_end) * 8)

let of_builder_result ?(name = "trace") ~n_nodes ~t_start ~t_end (buf : Builder.t) =
  Omn_obs.Span.with_ ~name:"trace.create" @@ fun () ->
  let exception Bad of Err.t in
  let bad code fmt = Format.kasprintf (fun msg -> raise (Bad (Err.v code msg))) fmt in
  try
    if n_nodes < 0 then bad Err.Range "Trace.create: n_nodes < 0 (%d)" n_nodes;
    (* A window bound that is not finite cannot be saved: the readers
       refuse it in a header. NaN would also slip past every test
       below, since it compares false. *)
    if not (Float.is_finite t_start && Float.is_finite t_end) then
      bad Err.Window "Trace.create: non-finite window [%g; %g]" t_start t_end;
    if t_start > t_end then bad Err.Window "Trace.create: reversed window [%g; %g]" t_start t_end;
    for i = 0 to buf.len - 1 do
      let a = buf.a.(i) and b = buf.b.(i) and t_beg = buf.t_beg.(i) and t_end' = buf.t_end.(i) in
      (* Both endpoints, both bounds: [Contact.make] canonicalises to
         [0 <= a < b], but contacts can reach us through [Marshal] or
         other private-constructor bypasses, and the index construction
         below would crash on them instead of reporting a typed error. *)
      if a < 0 || a >= n_nodes || b < 0 || b >= n_nodes then
        bad Err.Range "Trace.create: node id %d out of range (n_nodes = %d)"
          (if a < 0 || a >= n_nodes then a else b)
          n_nodes;
      (* [Contact.make] refuses [a = b] too. A forged self-contact
         would sit twice in its node's row and link to itself in
         [build_prev], where [Omn_core.Journey] would read it as an
         earlier contact of the same pair. *)
      if a = b then bad Err.Range "Trace.create: self-contact on node %d" a;
      (* Negated so that NaN fails too. [Omn_core.Journey]'s sweep
         relies on [t_beg <= t_end] and on the start-order sort, and a
         NaN bound slips past the window test below. *)
      if not (t_beg <= t_end') then
        bad Err.Window "Trace.create: contact [%g; %g] has reversed or NaN bounds" t_beg t_end';
      if t_beg < t_start || t_end' > t_end then
        bad Err.Window "Trace.create: contact [%g; %g] outside window [%g; %g]" t_beg t_end'
          t_start t_end
    done;
    let csr_a, csr_b, csr_beg, csr_end = in_start_order buf in
    (* The trace may now own the buffer's arrays. *)
    buf.len <- 0;
    buf.a <- [||];
    buf.b <- [||];
    buf.t_beg <- [||];
    buf.t_end <- [||];
    let adj_off, adj_idx = build_index ~n_nodes csr_a csr_b in
    let csr_prev, pair_runs, node_pair_off, node_pairs =
      build_links ~n_nodes ~off:adj_off ~idx:adj_idx csr_a csr_b csr_end
    in
    let t =
      {
        label = name;
        n_nodes;
        t_start;
        t_end;
        adj_off;
        adj_idx;
        csr =
          { csr_a; csr_b; csr_beg; csr_end; csr_prev; pair_runs; node_pair_off; node_pairs };
      }
    in
    Omn_obs.Metrics.set g_store_bytes (float_of_int (store_bytes t));
    Ok t
  with Bad e -> Error e

let create_array_result ?name ~n_nodes ~t_start ~t_end contacts =
  let buf = Builder.create (Array.length contacts) in
  Array.iter
    (fun (c : Contact.t) -> Builder.add buf ~a:c.a ~b:c.b ~t_beg:c.t_beg ~t_end:c.t_end)
    contacts;
  of_builder_result ?name ~n_nodes ~t_start ~t_end buf

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
let n_contacts t = Array.length t.csr.csr_a

let contact t i =
  let c = t.csr in
  Contact.make ~a:c.csr_a.(i) ~b:c.csr_b.(i) ~t_beg:c.csr_beg.(i) ~t_end:c.csr_end.(i)

let contacts t = Array.init (n_contacts t) (contact t)

let iter f t =
  for i = 0 to n_contacts t - 1 do
    f (contact t i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to n_contacts t - 1 do
    acc := f !acc (contact t i)
  done;
  !acc

let check_node t u fn =
  if u < 0 || u >= t.n_nodes then invalid_arg ("Trace." ^ fn ^ ": bad node")

let degree t u =
  check_node t u "degree";
  t.adj_off.(u + 1) - t.adj_off.(u)

let node_contacts t u =
  check_node t u "node_contacts";
  let off = t.adj_off.(u) in
  Array.init (t.adj_off.(u + 1) - off) (fun k -> contact t t.adj_idx.(off + k))

let iter_node_contacts f t u =
  check_node t u "iter_node_contacts";
  for k = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    f (contact t t.adj_idx.(k))
  done

let pair_contacts t u v =
  let u, v = if u < v then (u, v) else (v, u) in
  check_node t u "pair_contacts";
  check_node t v "pair_contacts";
  let c = t.csr in
  let acc = ref [] in
  for k = t.adj_off.(u + 1) - 1 downto t.adj_off.(u) do
    let i = t.adj_idx.(k) in
    if c.csr_a.(i) = u && c.csr_b.(i) = v then acc := contact t i :: !acc
  done;
  !acc

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
