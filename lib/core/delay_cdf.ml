module Trace = Omn_temporal.Trace
module Pool = Omn_parallel.Pool
module Metrics = Omn_obs.Metrics
module Err = Omn_robust.Err

let m_sources = Metrics.counter "delay_cdf.sources_done"
let m_pairs = Metrics.counter "delay_cdf.pairs_done"

(* Descriptors walked by accumulation, added once per pair. *)
let m_segments = Metrics.counter "delay_cdf.segments"

(* The most source partials a run held at once; set once per run. *)
let g_partials_held = Metrics.gauge "delay_cdf.partials_held"

type t = {
  grid_ : float array;
  slope_diff : float array;  (* length n+1: coefficient of d on [i_lo, i_full) *)
  const_diff : float array;  (* constant part on the same range *)
  full_diff : float array;   (* saturated contribution from i_full on *)
  mutable inf_mass : float;
  mutable total : float;
}

let create ~grid =
  let n = Array.length grid in
  if n = 0 then invalid_arg "Delay_cdf.create: empty grid";
  for i = 0 to n - 1 do
    if not (Float.is_finite grid.(i)) then invalid_arg "Delay_cdf.create: non-finite budget";
    if grid.(i) < 0. then invalid_arg "Delay_cdf.create: negative budget";
    if i > 0 && grid.(i) < grid.(i - 1) then invalid_arg "Delay_cdf.create: grid not ascending"
  done;
  {
    grid_ = Array.copy grid;
    slope_diff = Array.make (n + 1) 0.;
    const_diff = Array.make (n + 1) 0.;
    full_diff = Array.make (n + 1) 0.;
    inf_mass = 0.;
    total = 0.;
  }

let grid t = Array.copy t.grid_

(* Unchecked array reads and writes, used only in [lower],
   [add_segment] and [add_descriptors]; each use names what bounds its
   index. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* First grid index with grid.(i) >= x, or n. A query at or below the
   smallest budget, most of them on a dense trace, needs no search; a
   query above the largest budget, or NaN, is n. Otherwise the answer
   lies in [0, n) and a fixed halving loop narrows [base, base + len)
   onto it: a step of [half] is taken when the last of the first [half]
   candidates is still below [x]. The step is a mask of the comparison,
   so the loop has no data-dependent branch; duplicate budgets keep the
   first index, as a binary search on [>=] does. *)
let[@inline] lower t x =
  let g = t.grid_ in
  let n = Array.length g in
  (* [create] refuses an empty grid: n >= 1 *)
  if x <= g.!(0) then 0
  else if not (x <= g.!(n - 1)) then n
  else begin
    let base = ref 0 and len = ref n in
    while !len > 1 do
      let half = !len / 2 in
      (* base <= base + half - 1 < base + len <= n *)
      base := !base + (half land -Bool.to_int (g.!(!base + half - 1) < x));
      len := !len - half
    done;
    !base
  end

(* One creation-time segment (a, b], a < b, governed by arrival [ea]:
   success measure at budget d is clamp(b - max(a, ea - d), 0, b - a) —
   zero up to d = ea - b, then (b - ea) + d, then saturated at b - a.
   The caller adds b - a to [inf_mass]. *)
let[@inline] add_segment t ~a ~b ~ea =
  let i_lo = lower t (ea -. b) in
  let i_full = lower t (ea -. a) in
  (* [lower] answers in [0, n]; the diff arrays have length n + 1 *)
  if i_full > i_lo then begin
    t.slope_diff.!(i_lo) <- t.slope_diff.!(i_lo) +. 1.;
    t.slope_diff.!(i_full) <- t.slope_diff.!(i_full) -. 1.;
    t.const_diff.!(i_lo) <- t.const_diff.!(i_lo) +. (b -. ea);
    t.const_diff.!(i_full) <- t.const_diff.!(i_full) -. (b -. ea)
  end;
  t.full_diff.!(i_full) <- t.full_diff.!(i_full) +. (b -. a)

(* Descriptor i of a pair governs the creation times
   (max t_start ld.(i-1), min t_end ld.(i)]. Read off flat arrays, with
   [lower] and [add_segment] inlined and [inf_mass] summed in a local,
   the loop keeps its floats unboxed and allocates nothing per
   descriptor; every accumulator cell still sees the same float
   operations in the same order. The clipping is two compares, not
   [Float.max]/[Float.min] (each a C call, to order -0 below +0): the
   two agree but on NaN, which the callers refuse, and on which zero a
   tie of opposite zeros gives. That sign never reaches a cell. A kept
   segment has b > a, so the other end is non-zero and [b -. a] is the
   same float; [lower] compares -0 and +0 alike; and where [b -. ea]
   turns into the other zero, adding or subtracting it leaves a cell
   as it was, since a cell starts at +0 and so is never -0. *)
let add_descriptors t ~t_start ~t_end ~n lds eas =
  t.total <- t.total +. (t_end -. t_start);
  let inf_mass = ref t.inf_mass and prev_ld = ref neg_infinity in
  for i = 0 to n - 1 do
    (* the callers pass n <= the length of both arrays *)
    let ld = lds.!(i) in
    let pl = !prev_ld in
    let a = if pl > t_start then pl else t_start in
    let b = if ld < t_end then ld else t_end in
    if b > a then begin
      add_segment t ~a ~b ~ea:eas.!(i);
      inf_mass := !inf_mass +. (b -. a)
    end;
    prev_ld := ld
  done;
  t.inf_mass <- !inf_mass;
  Metrics.add m_segments n

let check_window fn ~t_start ~t_end =
  if not (Float.is_finite t_start && Float.is_finite t_end) then
    invalid_arg ("Delay_cdf." ^ fn ^ ": non-finite window");
  if t_start > t_end then invalid_arg ("Delay_cdf." ^ fn ^ ": reversed window")

let add_pair t ~t_start ~t_end (descriptors : Ld_ea.t array) =
  check_window "add_pair" ~t_start ~t_end;
  if Array.exists (fun (p : Ld_ea.t) -> Float.is_nan p.ld || Float.is_nan p.ea) descriptors then
    invalid_arg "Delay_cdf.add_pair: nan descriptor";
  add_descriptors t ~t_start ~t_end ~n:(Array.length descriptors)
    (Array.map (fun (p : Ld_ea.t) -> p.ld) descriptors)
    (Array.map (fun (p : Ld_ea.t) -> p.ea) descriptors)

(* [add_pair] off a live frontier, minus the [Frontier.to_array]
   descriptor snapshot: the accumulation loop of [partial_of] reads the
   frontier's SoA storage in place. [Frontier.insert] refuses NaN, and
   a frontier's size is at most the length of its arrays. *)
let add_pair_frontier t ~t_start ~t_end frontier =
  check_window "add_pair_frontier" ~t_start ~t_end;
  add_descriptors t ~t_start ~t_end ~n:(Frontier.size frontier) (Frontier.ld_arr frontier)
    (Frontier.ea_arr frontier)

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
let total_mass t = t.total

let merge_into ~dst src =
  if dst.grid_ <> src.grid_ then invalid_arg "Delay_cdf.merge_into: different grids";
  let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) +. v) b in
  add dst.slope_diff src.slope_diff;
  add dst.const_diff src.const_diff;
  add dst.full_diff src.full_diff;
  dst.inf_mass <- dst.inf_mass +. src.inf_mass;
  dst.total <- dst.total +. src.total

type curves = {
  grid : float array;
  hop_success : float array array;
  hop_success_inf : float array;
  flood_success : float array;
  flood_success_inf : float;
  max_rounds_used : int;
}

(* --- the plan: what one run computes, validated once --- *)

type plan = {
  trace : Trace.t;
  max_hops : int;
  grid : float array;
  windows : (float * float) list;
  is_dest : bool array;
  sources : Omn_temporal.Node.t array;
  order : int array;
  seed : int;
}

(* Reorder sources by a stride coprime to their count so that every
   prefix of the order is a near-uniform sample of the whole list —
   that is what makes a budget-truncated run a fair subsample. *)
let uniform_order sources =
  let arr = Array.of_list sources in
  let n = Array.length arr in
  if n <= 2 then sources
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let s = ref (max 1 (int_of_float (0.618 *. float_of_int n))) in
    while gcd n !s <> 1 do
      incr s
    done;
    List.init n (fun i -> arr.(i * !s mod n))
  end

(* Rotating the stride order by the seed keeps every prefix a
   near-uniform sample (the stride property is rotation-invariant)
   while giving distinct seeds genuinely different samples. *)
let rotate arr k =
  let n = Array.length arr in
  let k = ((k mod n) + n) mod n in
  Array.init n (fun i -> arr.((i + k) mod n))

let plan ?(max_hops = 10) ?sources ?dests ?(grid = Omn_stats.Grid.delay_default) ?windows
    ?(seed = 0) trace =
  let n = Trace.n_nodes trace in
  let sources = Option.value sources ~default:(List.init n Fun.id) in
  let windows = Option.value windows ~default:[ (Trace.t_start trace, Trace.t_end trace) ] in
  let outside = List.find_opt (fun v -> v < 0 || v >= n) in
  let reject fmt =
    Printf.ksprintf (fun msg -> Err.error Err.Usage ("Delay_cdf.plan: " ^ msg)) fmt
  in
  let grid_error = match create ~grid with _ -> None | exception Invalid_argument m -> Some m in
  if max_hops < 1 then reject "max_hops %d < 1" max_hops
  else if sources = [] then reject "empty source list"
  else if windows = [] then reject "empty window list"
  else
    match
      ( outside sources,
        outside (Option.value dests ~default:[]),
        List.find_opt (fun (a, b) -> not (Float.is_finite a && Float.is_finite b)) windows,
        List.find_opt (fun (a, b) -> a > b) windows,
        grid_error )
    with
    | Some s, _, _, _, _ -> reject "source %d out of range [0, %d)" s n
    | None, Some d, _, _, _ -> reject "destination %d out of range [0, %d)" d n
    | None, None, Some (a, b), _, _ -> reject "non-finite window (%g, %g)" a b
    | None, None, None, Some (a, b), _ -> reject "reversed window (%g, %g)" a b
    | None, None, None, None, Some msg -> Err.error Err.Usage msg
    | None, None, None, None, None ->
      let is_dest =
        match dests with
        | None -> Array.make n true
        | Some ds ->
          let mask = Array.make n false in
          List.iter (fun d -> mask.(d) <- true) ds;
          mask
      in
      let sources = Array.of_list sources in
      let positions = List.init (Array.length sources) Fun.id in
      Ok
        {
          trace;
          max_hops;
          grid = Array.copy grid;
          windows;
          is_dest;
          sources;
          order = rotate (Array.of_list (uniform_order positions)) seed;
          seed;
        }

let plan_exn ?max_hops ?sources ?dests ?grid ?windows trace =
  match plan ?max_hops ?sources ?dests ?grid ?windows trace with
  | Ok p -> p
  | Error e -> invalid_arg e.Err.msg

(* --- per-source partials and the one fold over them --- *)

type partial = { p_hops : t array; p_flood : t; p_rounds : int }

(* Each domain runs its journeys in one workspace, whatever plan or
   trace they belong to: [partial_of] reads the frontiers before it
   returns, and a domain runs one source at a time. *)
let workspace = Domain.DLS.new_key Journey.workspace

(* The per-hop and flooding accumulators of one source. Self-contained
   so that sources can run on separate domains or worker processes:
   the only shared value is the (frozen) plan. *)
let partial_of plan source =
  let hops = Array.init plan.max_hops (fun _ -> create ~grid:plan.grid) in
  let flood = create ~grid:plan.grid in
  let add_frontiers acc frontiers =
    Array.iteri
      (fun dest frontier ->
        if dest <> source && plan.is_dest.(dest) then
          List.iter
            (fun (t_start, t_end) -> add_pair_frontier acc ~t_start ~t_end frontier)
            plan.windows)
      frontiers
  in
  let on_round (info : Journey.round_info) =
    if info.hop <= plan.max_hops then add_frontiers hops.(info.hop - 1) info.frontiers
  in
  let frontiers, rounds =
    Journey.run ~workspace:(Domain.DLS.get workspace) ~on_round plan.trace ~source
  in
  for k = rounds + 1 to plan.max_hops do
    add_frontiers hops.(k - 1) frontiers
  done;
  add_frontiers flood frontiers;
  let n_dests = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 plan.is_dest in
  Metrics.incr m_sources;
  Metrics.add m_pairs (n_dests - if plan.is_dest.(source) then 1 else 0);
  { p_hops = hops; p_flood = flood; p_rounds = rounds }

(* [merge_into] is plain float addition, so the curves depend on the
   sequence of merges: ascending position, whatever order the partials
   completed in. [fold] and the fold state share the one merge step. *)
type sums = { s_hops : t array; s_flood : t; mutable s_rounds : int }

let sums plan =
  {
    s_hops = Array.init plan.max_hops (fun _ -> create ~grid:plan.grid);
    s_flood = create ~grid:plan.grid;
    s_rounds = 0;
  }

let merge_partial s p =
  if Array.length p.p_hops <> Array.length s.s_hops then
    invalid_arg "Delay_cdf.fold: max_hops mismatch";
  Array.iteri (fun i acc -> merge_into ~dst:s.s_hops.(i) acc) p.p_hops;
  merge_into ~dst:s.s_flood p.p_flood;
  s.s_rounds <- max s.s_rounds p.p_rounds

let curves_of plan s =
  {
    grid = Array.copy plan.grid;
    hop_success = Array.map success s.s_hops;
    hop_success_inf = Array.map success_inf s.s_hops;
    flood_success = success s.s_flood;
    flood_success_inf = success_inf s.s_flood;
    max_rounds_used = s.s_rounds;
  }

let fold plan parts =
  let s = sums plan in
  List.iter
    (fun (_, p) -> merge_partial s p)
    (List.stable_sort (fun (i, _) (j, _) -> Int.compare i j) parts);
  curves_of plan s

(* [next]: every position below it has been merged, and it has not.
   [held]: the partials that arrived before their turn, by position. *)
type fold_state = {
  f_plan : plan;
  f_sums : sums;
  f_held : partial option array;
  mutable f_next : int;
  mutable f_n_held : int;
  mutable f_most_held : int;
}

let fold_state plan =
  {
    f_plan = plan;
    f_sums = sums plan;
    f_held = Array.make (Array.length plan.sources) None;
    f_next = 0;
    f_n_held = 0;
    f_most_held = 0;
  }

let fold_add st pos p =
  if pos < st.f_next || pos >= Array.length st.f_held || Option.is_some st.f_held.(pos) then
    invalid_arg (Printf.sprintf "Delay_cdf.fold_add: position %d already added or out of range" pos);
  st.f_most_held <- max st.f_most_held (st.f_n_held + 1);
  if pos > st.f_next then begin
    st.f_held.(pos) <- Some p;
    st.f_n_held <- st.f_n_held + 1
  end
  else begin
    merge_partial st.f_sums p;
    st.f_next <- pos + 1;
    let n = Array.length st.f_held in
    let rec drain () =
      if st.f_next < n then
        match st.f_held.(st.f_next) with
        | None -> ()
        | Some p ->
          merge_partial st.f_sums p;
          st.f_held.(st.f_next) <- None;
          st.f_n_held <- st.f_n_held - 1;
          st.f_next <- st.f_next + 1;
          drain ()
    in
    drain ()
  end

let fold_finish st =
  Array.iter (Option.iter (merge_partial st.f_sums)) st.f_held;
  curves_of st.f_plan st.f_sums

let most_held st = st.f_most_held

let source_partial ?max_hops ?dests ?grid ?windows trace source =
  partial_of (plan_exn ?max_hops ~sources:[ source ] ?dests ?grid ?windows trace) source

let partial_magic = "omn-partial 1\n"

(* Marshal is safe here: both ends run the same binary (the coordinator
   spawns its own executable as workers) and the magic prefix rejects
   frames from anything else. Floats round-trip bit-exactly. *)
let partial_to_string p = partial_magic ^ Marshal.to_string p []

let partial_of_string s =
  let m = String.length partial_magic in
  if String.length s < m || String.sub s 0 m <> partial_magic then
    Error "not an omn-partial payload"
  else
    match (Marshal.from_string s m : partial) with
    | p -> Ok p
    | exception _ -> Error "unreadable omn-partial payload"

let compute ?max_hops ?sources ?dests ?grid ?pool ?(domains = 1) ?windows trace =
  if domains < 1 then invalid_arg "Delay_cdf.compute: domains < 1";
  let plan = plan_exn ?max_hops ?sources ?dests ?grid ?windows trace in
  Omn_obs.Span.with_ ~name:"delay_cdf.compute" @@ fun () ->
  let st = fold_state plan in
  Pool.feed ?pool ~domains (partial_of plan) plan.sources (fold_add st);
  Metrics.set g_partials_held (float_of_int st.f_most_held);
  fold_finish st

type failure = { source : Omn_temporal.Node.t; reason : string }

type progress = {
  sources_done : int;
  sources_total : int;
  partial : bool;
  ckpt_fallback : bool;
}
