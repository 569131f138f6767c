module Trace = Omn_temporal.Trace

type round_info = { hop : int; frontiers : Frontier.t array; changed : int }

type strategy = Semi_naive | Full_recompute

(* Sweep counters: extends that found a non-empty delta, the
   candidates they emitted, and the case (b) candidates rejected by the
   pair rule in [extend] without a frontier search. Tallied in locals
   and flushed once per round, so they cost nothing per contact. *)
let m_extends = Omn_obs.Metrics.counter "journey.extends"
let m_candidates = Omn_obs.Metrics.counter "journey.candidates"
let m_pair_repeats = Omn_obs.Metrics.counter "journey.pair_repeats"
let m_rounds = Omn_obs.Metrics.counter "journey.rounds"
let m_point_rounds = Omn_obs.Metrics.counter "journey.point_rounds"

(* Unchecked array reads and writes, used only in [dominated], [extend],
   [walk] and the round loop. The indices there are node ids and
   contact indices out of [Trace.time_csr], which [Trace.create]
   validated and built (ids in [0, n), links and pair runs inside the
   store), positions in a frontier below its size (at most the length
   of its arrays), and the per-node tables below, all of length n (or
   n + 1 for [node_pair_off]). Each use names its bound. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Would [Frontier.insert_pt f ~ld ~ea] reject the point? Its own first
   test — the member with the least [ld' >= ld] has [ea' <= ea] — read
   straight off the SoA arrays. The member is found by a finger search
   from [hint.(v)], where the last check on destination [v] ended, and
   the answer becomes the next hint: consecutive checks on one
   destination land a few positions apart, so this costs a few probes
   instead of a binary search of the whole frontier. False on NaN
   coordinates, which therefore still reach [insert_pt] and raise
   there. [@inline] here and on [Frontier.lower_ld_from] is honoured
   without flambda too, and it is what keeps a rejected candidate
   unboxed: a call would box both floats. Across modules it needs
   Frontier's implementation at compile time, which the release
   profile has and the dev profile's [-opaque] hides. *)
let[@inline] dominated f hint v ~ld ~ea =
  (* v: a node id, and [hint] has length n *)
  let i = Frontier.lower_ld_from f ~hint:hint.!(v) ld in
  hint.!(v) <- i;
  (* i < size *)
  i < Frontier.size f && (Frontier.ea_arr f).!(i) <= ea

(* Everything a run allocates in proportion to n: the result
   frontiers, the two scratch frontier arrays [delta] and [next], the
   touched-node stacks and the per-node [cursor] and [hint] tables. A
   frontier's arrays grow by doubling and, past 256 points, go straight
   to the major heap, so a run per source on fresh ones leaves the
   major GC a run's worth of frontiers to trace and free. [prepare]
   empties a workspace's tables for the next run instead, keeping every
   frontier's capacity; [fresh] builds tables that no later run
   touches. *)
type tables = {
  w_frontiers : Frontier.t array;
  w_delta : Frontier.t array;
  w_next : Frontier.t array;
  w_touched : int array;
  w_next_touched : int array;
  w_cursor : int array;
  w_hint : int array;
}

type workspace = tables ref

let fresh n =
  let frontier_array () = Array.init n (fun _ -> Frontier.create ()) in
  {
    w_frontiers = frontier_array ();
    w_delta = frontier_array ();
    w_next = frontier_array ();
    w_touched = Array.make n 0;
    w_next_touched = Array.make n 0;
    w_cursor = Array.make n (-1);
    w_hint = Array.make n 0;
  }

let workspace () = ref (fresh 0)

(* A run may stop early ([stop_after]), end on a full-recompute round
   that refilled [delta], or raise, so every table is reset here, not
   trusted from the last run: O(n), against a run's O(rounds * m). The
   stacks need no reset: a run writes each slot before reading it. *)
let prepare ws n =
  if Array.length !ws.w_frontiers <> n then ws := fresh n
  else begin
    let t = !ws in
    Array.iter Frontier.clear t.w_frontiers;
    Array.iter Frontier.clear t.w_delta;
    Array.iter Frontier.clear t.w_next;
    Array.fill t.w_cursor 0 n (-1);
    Array.fill t.w_hint 0 n 0
  end;
  !ws

(* The round loop is written against the structure-of-arrays layers
   underneath it and allocates nothing per relaxation in the steady
   state:

   - the contact sweep reads the trace's store (flat arrays in start
     order, [Trace.time_csr]), never a boxed [Contact.t] record;
   - a candidate is first checked against its destination frontier on
     unboxed floats ([dominated]); only the few that survive travel as
     bare [ld]/[ea] floats into [Frontier.insert_pt] — no intermediate
     [Ld_ea.make];
   - each node owns two reusable scratch frontiers ([delta], holding
     the descriptors discovered last round, and [next], collecting this
     round's discoveries already Pareto-pruned), swapped and [clear]ed
     between rounds. The old driver accumulated per-round insertions in
     lists and re-pruned them through a throwaway [Frontier.create] per
     touched node per round; the scratch frontiers make that pruning
     incremental and allocation-free.

   Inserting a successful frontier candidate into [next] never fails:
   if any earlier fresh point dominated it, that point (or a dominator
   of it, transitively) would still be in the destination frontier and
   would have rejected the candidate there first. So [next.(v)] is
   exactly the Pareto antichain of the round's fresh points — the same
   delta the list-and-reprune driver produced, in the same sorted
   order. *)
let run_internal ?(strategy = Semi_naive) ?workspace ?on_round ?stop_after trace ~source =
  let n = Trace.n_nodes trace in
  if source < 0 || source >= n then invalid_arg "Journey.run: bad source";
  let ws = match workspace with Some ws -> prepare ws n | None -> fresh n in
  let frontiers = ws.w_frontiers in
  let _ = Frontier.insert frontiers.(source) Ld_ea.identity in
  let delta = ref ws.w_delta in
  let next = ref ws.w_next in
  Frontier.insert_scratch !delta.(source) ~ld:Ld_ea.identity.ld ~ea:Ld_ea.identity.ea;
  (* Touched-node stacks (this round's and next round's), reused across
     rounds; [next.(v)]'s emptiness dedups membership. *)
  let touched = ref ws.w_touched and touched_n = ref 1 in
  let next_touched = ref ws.w_next_touched and next_touched_n = ref 0 in
  !touched.(0) <- source;
  let csr = Trace.time_csr trace in
  let ca = csr.Trace.csr_a and cb = csr.Trace.csr_b in
  let cbeg = csr.Trace.csr_beg and cend = csr.Trace.csr_end in
  let cprev = csr.Trace.csr_prev in
  let runs = csr.Trace.pair_runs in
  let pair_off = csr.Trace.node_pair_off and pairs = csr.Trace.node_pairs in
  let m = Array.length ca in
  let changed = ref 0 in
  (* [cursor.(u)]: last index of [delta.(u)] with [ea <= tb] for the
     contact being swept. See [extend]. *)
  let cursor = ws.w_cursor in
  (* [hint.(v)]: where the last [dominated] check on [v] ended. *)
  let hint = ws.w_hint in
  let extends = ref 0 and candidates = ref 0 and rejected = ref 0 and repeats = ref 0 in
  (* Without flambda, every float crossing a function boundary is boxed,
     so the sweep passes only the contact index (an immediate) and the
     candidate coordinates are re-read from / kept in unboxed float
     positions; [insert_cand] is the one place a candidate becomes a
     pair of boxed arguments, once per undominated emission. Both
     closures are allocated once per run, not per contact. *)
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
  (* Extend the delta of [from_node] by contact [ci] towards [to_node]:
     the candidate case analysis of the .mli header, inlined over the
     delta's float arrays. Three indices into the delta drive it:
     [j], the last point with [ea <= tb]; [hi], the first with
     [ea > te]; and [i], the first with [ld >= te]. The delta is fixed
     for the round and the sweep meets contacts in start order, so [tb]
     never decreases for a given [from_node] and [j] is a cursor that
     only moves forward. [hi] is a short scan on from [j], over the
     points with [tb < ea <= te]. Both coordinates rise together, so
     [i < hi] only when [dld.(hi - 1) >= te], and only then is [i]
     searched for, within [0, hi); otherwise [hi] stands in for it,
     which neither case (a) nor the case (c) range can tell apart. *)
  let extend from_node to_node ci =
    (* from_node, to_node: the ends of contact ci < m *)
    let d = !delta.!(from_node) in
    let dn = Frontier.size d in
    if dn > 0 then begin
      incr extends;
      let tb = cbeg.!(ci) and te = cend.!(ci) in
      let dld = Frontier.ld_arr d and dea = Frontier.ea_arr d in
      (* the delta's positions below: -1 <= j < dn, j < hi <= dn,
         lo <= mid < up < hi, i <= hi, and (c)'s j < k < i *)
      let j = ref cursor.!(from_node) in
      while !j + 1 < dn && dea.!(!j + 1) <= tb do
        incr j
      done;
      let j = !j in
      cursor.!(from_node) <- j;
      let hi = ref (j + 1) in
      while !hi < dn && dea.!(!hi) <= te do
        incr hi
      done;
      let hi = !hi in
      if hi > 0 then begin
        let i =
          if dld.!(hi - 1) < te then hi
          else begin
            let lo = ref 0 and up = ref (hi - 1) in
            while !lo < !up do
              let mid = (!lo + !up) / 2 in
              if dld.!(mid) >= te then up := mid else lo := mid + 1
            done;
            !lo
          end
        in
        let dst = frontiers.!(to_node) in
        (* (a) the first point with ld >= te, if its ea <= te *)
        if i < hi then begin
          let ea = if dea.!(i) >= tb then dea.!(i) else tb in
          incr candidates;
          if dominated dst hint to_node ~ld:te ~ea then incr rejected
          else insert_cand to_node te ea
        end;
        (* (b) the last point with ea <= tb, if its ld < te. The pair
           rule comes first. Let [p] be the pair's previous contact:
           this round swept it earlier, in both directions, against
           this same delta, and [tb_p <= tb]. If [ea_j <= te_p] and
           [ld_j <= te_p], point [j] crosses [p] as
           [(ld_j, max ea_j tb_p)]. The (a)/(b)/(c) candidates of [p]
           dominate every crossing of [p], and each was inserted into
           [dst] or found dominated there (by induction over the
           sweep, also those this rule rejected). Frontiers only
           improve and [max ea_j tb_p <= tb], so [dst] dominates
           [(ld_j, tb)] now: [dominated] would say so too, after a
           frontier search. The proof needs [p] swept before [ci] in
           the same round; a sweep that skips or reorders contacts
           must drop the rule or prove it again. *)
        if j >= 0 && j < i then begin
          incr candidates;
          (* [csr_prev] holds -1 or an earlier contact *)
          let p = cprev.!(ci) in
          if p >= 0 && dea.!(j) <= cend.!(p) && dld.!(j) <= cend.!(p) then begin
            incr rejected;
            incr repeats
          end
          else if dominated dst hint to_node ~ld:dld.!(j) ~ea:tb then incr rejected
          else insert_cand to_node dld.!(j) tb
        end;
        (* (c) every point with tb < ea <= te and ld < te, verbatim *)
        for k = j + 1 to i - 1 do
          incr candidates;
          if dominated dst hint to_node ~ld:dld.!(k) ~ea:dea.!(k) then incr rejected
          else insert_cand to_node dld.!(k) dea.!(k)
        done
      end
    end
  in
  (* Extend every point of [delta.(u)] along every pair of [u], one
     pair at a time: the pair's run of kept contacts (ends strictly
     increasing, starts non-decreasing) and its destination [v] stay
     put while the points go by in ascending order, so the first
     contact a point can catch (end >= ea) is searched for from where
     the previous point's search ended. A point (ld, ea) crosses a
     contact [tb; te] with te >= ea into (min ld te, max ea tb). Along
     the run both coordinates of that crossing rise, so the walk
     offers a contact's crossing unless the next contact starts by the
     crossing's arrival (the next crossing then dominates it), and
     stops after the first contact with te >= ld (every later crossing
     is (ld, ea') with an ea' no earlier). A point that [v]'s frontier
     already dominates dominates all its crossings, and is skipped. No
     pair rule here: its proof needs every contact swept in start
     order. *)
  let walk u =
    (* u: a touched node *)
    let d = !delta.!(u) in
    let dn = Frontier.size d in
    let dld = Frontier.ld_arr d and dea = Frontier.ea_arr d in
    (* [node_pair_off] has length n + 1; its entries delimit [node_pairs],
       whose entries are the starts of runs in [pair_runs]. A run is its
       length, then that many contact indices: the run's contacts sit at
       run + 1 .. e - 1, and every position searched or walked below is
       in [run + 1, e). Each is a contact between u and v. *)
    for k = pair_off.!(u) to pair_off.!(u + 1) - 1 do
      let run = pairs.!(k) in
      let e = run + 1 + runs.!(run) in
      let c0 = runs.!(run + 1) in
      let v = ca.!(c0) + cb.!(c0) - u in
      let dst = frontiers.!(v) in
      let first = ref (run + 1) in
      extends := !extends + dn;
      for q = 0 to dn - 1 do
        (* q < dn, the delta's size *)
        let ld = dld.!(q) and ea = dea.!(q) in
        if not (dominated dst hint v ~ld ~ea) then begin
          (* the first contact with te >= ea, at or after the previous
             point's *)
          let lo = ref !first and up = ref e in
          while !lo < !up do
            let mid = (!lo + !up) / 2 in
            if cend.!(runs.!(mid)) >= ea then up := mid else lo := mid + 1
          done;
          first := !lo;
          let r = ref !lo in
          while !r < e do
            let c = runs.!(!r) in
            let te = cend.!(c) in
            let cea = if ea >= cbeg.!(c) then ea else cbeg.!(c) in
            if !r + 1 < e && cbeg.!(runs.!(!r + 1)) <= cea then incr r
            else begin
              let cld = if te <= ld then te else ld in
              incr candidates;
              if dominated dst hint v ~ld:cld ~ea:cea then incr rejected
              else insert_cand v cld cea;
              r := if te >= ld then e else !r + 1
            end
          done
        end
      done
    done
  in
  (* A contact scan visits 2m contact directions however few points
     moved; a round on points walks each point of the delta along each
     pair of its node, and a walk costs about [point_cost] visits. The
     constant was measured on the inputs of the three benchmark
     workloads: CPU time of their sweeps (every source of Infocom05 and
     of the six thinned Infocom06 days, the four sampled sources of the
     stream trace), release build, 2-vCPU VM, medians of 6 alternated
     runs. Scans only: 1.17 / 1.11 / 0.50 s; constant 2: 0.91 / 0.99 /
     0.46 s; 3: 1.00 / 0.96 / 0.41 s; 4: 0.98 / 1.03 / 0.42 s; 6: 0.97
     / 1.01 / 0.46 s. A second set put 4 first (0.92 / 0.98 / 0.45 s,
     2 last); summed over both, 3 and 4 tie and 2 and 6 trail by 5 %.
     Points only: 1.97 s on Infocom05. *)
  let point_cost = 4 in
  let do_round () =
    changed := 0;
    next_touched_n := 0;
    (* [touched] holds [touched_n] <= n node ids; m is the length of
       the contact arrays *)
    for idx = 0 to !touched_n - 1 do
      cursor.!(!touched.!(idx)) <- -1
    done;
    let walks = ref 0 in
    for idx = 0 to !touched_n - 1 do
      let u = !touched.!(idx) in
      walks := !walks + (Frontier.size !delta.!(u) * (pair_off.!(u + 1) - pair_off.!(u)))
    done;
    let on_points = point_cost * !walks < 2 * m in
    if on_points then
      for idx = 0 to !touched_n - 1 do
        walk !touched.!(idx)
      done
    else
      for ci = 0 to m - 1 do
        extend ca.!(ci) cb.!(ci) ci;
        extend cb.!(ci) ca.!(ci) ci
      done;
    Omn_obs.Metrics.add m_extends !extends;
    Omn_obs.Metrics.add m_candidates !candidates;
    Omn_obs.Metrics.add m_pair_repeats !repeats;
    Frontier.count_rejected !rejected;
    extends := 0;
    candidates := 0;
    rejected := 0;
    repeats := 0;
    (match strategy with
    | Semi_naive ->
      (* Clear the consumed deltas, then swap: this round's pruned
         discoveries become next round's deltas, and the cleared arrays
         stand by to collect the round after. *)
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
    | Full_recompute ->
      (* Ablation: re-extend every frontier point each round instead of
         only the new ones. Same results, no convergence shortcut. *)
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
    (!changed, on_points)
  in
  let point_rounds = ref 0 in
  (* A delay-optimal journey never repeats a node: cutting a loop out
     leaves a valid journey with fewer hops whose (LD, EA) weakly
     dominates, and the frontier, holding that point since an earlier
     round, rejects the looped one. So a round past n - 1 changes
     nothing, and round n is at the latest the fixpoint round; a round
     past it is a bug. *)
  let rec loop round =
    if round > n then failwith "Journey.run: no fixpoint within n_nodes rounds";
    let changed, on_points = do_round () in
    if changed = 0 then round - 1
    else begin
      if on_points then incr point_rounds;
      (match on_round with
      | Some f -> f { hop = round; frontiers; changed }
      | None -> ());
      match stop_after with
      | Some k when round >= k -> round
      | _ -> loop (round + 1)
    end
  in
  let rounds = loop 1 in
  Omn_obs.Metrics.add m_rounds rounds;
  Omn_obs.Metrics.add m_point_rounds !point_rounds;
  (frontiers, rounds)

let run ?strategy ?workspace ?on_round trace ~source =
  run_internal ?strategy ?workspace ?on_round trace ~source

let frontiers_at_hops trace ~source ~max_hops =
  if max_hops < 0 then invalid_arg "Journey.frontiers_at_hops: negative bound";
  if max_hops = 0 then begin
    let frontiers = Array.init (Trace.n_nodes trace) (fun _ -> Frontier.create ()) in
    let _ = Frontier.insert frontiers.(source) Ld_ea.identity in
    frontiers
  end
  else fst (run_internal ~stop_after:max_hops trace ~source)

let delivery_to trace ~source ~dest ?max_hops () =
  let frontiers =
    match max_hops with
    | None -> fst (run trace ~source)
    | Some k -> frontiers_at_hops trace ~source ~max_hops:k
  in
  Delivery.of_descriptors (Frontier.to_array frontiers.(dest))
