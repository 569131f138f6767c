(* Structure-of-arrays Pareto frontier. The members live in two parallel
   unboxed [float array]s — [ld.(i)] and [ea.(i)] for i < size — kept
   strictly increasing in both coordinates: if two members had equal
   [ld], the one with larger [ea] would be dominated; same for equal
   [ea]. The SoA layout keeps the binary searches and blits of the hot
   insert path inside flat float memory: no per-point boxes, no pointer
   chasing, and a steady-state [insert_pt] that allocates nothing (the
   backing arrays grow amortised-doubling and are reused in place). *)

type t = { mutable ld : float array; mutable ea : float array; mutable size : int }

(* Cumulative insertion outcomes, process-wide: a point is "kept" when it
   enters a frontier and "pruned" when domination rejects or evicts it.
   Scratch-delta bookkeeping inserts ([insert_scratch], used by the
   [Journey] round loop) are deliberately uncounted so the counters
   measure real frontier traffic only. *)
let m_kept = Omn_obs.Metrics.counter "frontier.points_kept"
let m_pruned = Omn_obs.Metrics.counter "frontier.points_pruned"

let create () = { ld = [||]; ea = [||]; size = 0 }

let copy t =
  { ld = Array.sub t.ld 0 t.size; ea = Array.sub t.ea 0 t.size; size = t.size }

let size t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

let ld_arr t = t.ld
let ea_arr t = t.ea

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Frontier.get"
  else { Ld_ea.ld = t.ld.(i); ea = t.ea.(i) }

let to_array t = Array.init t.size (fun i -> { Ld_ea.ld = t.ld.(i); ea = t.ea.(i) })

(* Unchecked array reads and writes, used only in [search_ld],
   [lower_ld_from] and [insert_raw]. Their indices stay below [size],
   and [size] never exceeds the length of either array: only
   [ensure_capacity] and [copy_into] replace the arrays, and both make
   them at least [size] long. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* First index in [lo, hi) with d.(i) >= x, or hi. Every comparison is
   [d.(i) >= x], false on a NaN [x], so a NaN query ends at [hi].
   Callers pass 0 <= lo and hi <= size. *)
let[@inline] search_ld (d : float array) (x : float) lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    (* lo <= mid < hi *)
    if d.!(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* First index with ld.(i) >= x, or size. *)
let lower_ld t x = search_ld t.ld x 0 t.size

(* [lower_ld] by a finger search from [hint]: probe 1, 2, 4, ...
   positions away from the hint, towards the answer, then binary-search
   the last step. The answer is the same as [lower_ld]'s, so any hint
   is correct; a near one makes it O(log distance). A NaN [x] fails
   every [>=], so it walks right to [size] as the binary search does. *)
let[@inline] lower_ld_from t ~hint x =
  let d = t.ld and size = t.size in
  let h = if hint < 0 then 0 else if hint > size then size else hint in
  (* every probe below is guarded: 0 <= h < size, h + step < size,
     0 <= h - step < h <= size *)
  if h < size && not (d.!(h) >= x) then begin
    (* The answer is past [h]. *)
    let lo = ref (h + 1) and step = ref 1 in
    while h + !step < size && not (d.!(h + !step) >= x) do
      lo := h + !step + 1;
      step := 2 * !step
    done;
    search_ld d x !lo (if h + !step < size then h + !step else size)
  end
  else begin
    (* The answer is at or before [h]. *)
    let hi = ref h and step = ref 1 in
    while h - !step >= 0 && d.!(h - !step) >= x do
      hi := h - !step;
      step := 2 * !step
    done;
    search_ld d x (if h - !step >= 0 then h - !step + 1 else 0) !hi
  end

(* First index with ea.(i) > x, or size. *)
let upper_ea t x =
  let d = t.ea in
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

let mem_dominated t (p : Ld_ea.t) =
  let i = lower_ld t p.ld in
  i < t.size && t.ea.(i) <= p.ea

let ensure_capacity t =
  let cap = Array.length t.ld in
  if t.size = cap then begin
    let cap' = max 8 (2 * cap) in
    let ld' = Array.make cap' 0. and ea' = Array.make cap' 0. in
    Array.blit t.ld 0 ld' 0 t.size;
    Array.blit t.ea 0 ea' 0 t.size;
    t.ld <- ld';
    t.ea <- ea'
  end

(* The uncounted core of insertion; [removed] slots [j, k) collapse into
   the new point. Returns true iff the point became a member. *)
let[@inline] insert_raw t ~ld ~ea =
  if Float.is_nan ld || Float.is_nan ea then invalid_arg "Frontier.insert: nan";
  (* [lower_ld] answers in [0, size] *)
  let i = lower_ld t ld in
  if i < t.size && t.ea.!(i) <= ea then (-1)
  else begin
    (* Members dominated by the new point have ld' <= ld and ea' >= ea.
       Those with ld' < ld sit at indices < i; by ea-monotonicity they
       form the tail run [j, i). A member at [i] with ld' = ld (and
       ea' > ea, else we returned above) is dominated too. *)
    let j =
      let d = t.ea in
      let lo = ref 0 and hi = ref i in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        (* 0 <= mid < i <= size *)
        if d.!(mid) >= ea then hi := mid else lo := mid + 1
      done;
      !lo
    in
    let k = if i < t.size && t.ld.!(i) = ld then i + 1 else i in
    let removed = k - j in
    if removed = 0 then begin
      ensure_capacity t;
      Array.blit t.ld j t.ld (j + 1) (t.size - j);
      Array.blit t.ea j t.ea (j + 1) (t.size - j);
      (* j <= size < capacity after [ensure_capacity] *)
      t.ld.!(j) <- ld;
      t.ea.!(j) <- ea;
      t.size <- t.size + 1
    end
    else begin
      (* j < k <= size *)
      t.ld.!(j) <- ld;
      t.ea.!(j) <- ea;
      if removed > 1 then begin
        Array.blit t.ld k t.ld (j + 1) (t.size - k);
        Array.blit t.ea k t.ea (j + 1) (t.size - k);
        t.size <- t.size - removed + 1
      end
    end;
    removed
  end

let[@inline] insert_pt t ~ld ~ea =
  match insert_raw t ~ld ~ea with
  | -1 ->
    Omn_obs.Metrics.incr m_pruned;
    false (* dominated (or equal) *)
  | removed ->
    Omn_obs.Metrics.incr m_kept;
    if removed > 0 then Omn_obs.Metrics.add m_pruned removed;
    true

let[@inline] insert_scratch t ~ld ~ea = ignore (insert_raw t ~ld ~ea)

let count_rejected k = if k > 0 then Omn_obs.Metrics.add m_pruned k

let insert t (p : Ld_ea.t) = insert_pt t ~ld:p.ld ~ea:p.ea

let copy_into ~src ~dst =
  if Array.length dst.ld < src.size then begin
    dst.ld <- Array.make src.size 0.;
    dst.ea <- Array.make src.size 0.
  end;
  Array.blit src.ld 0 dst.ld 0 src.size;
  Array.blit src.ea 0 dst.ea 0 src.size;
  dst.size <- src.size

let first_ld_geq t x =
  let i = lower_ld t x in
  if i < t.size then Some { Ld_ea.ld = t.ld.(i); ea = t.ea.(i) } else None

let last_ea_leq t x =
  let i = upper_ea t x in
  if i = 0 then None else Some { Ld_ea.ld = t.ld.(i - 1); ea = t.ea.(i - 1) }

let iter_ea_in t ~lo ~hi f =
  let i0 = upper_ea t lo in
  let i = ref i0 in
  while !i < t.size && t.ea.(!i) <= hi do
    f { Ld_ea.ld = t.ld.(!i); ea = t.ea.(!i) };
    incr i
  done

let delivery t at =
  let i = lower_ld t at in
  if i >= t.size then infinity else Float.max at t.ea.(i)

let equal t1 t2 =
  t1.size = t2.size
  &&
  let rec go i =
    i = t1.size || (t1.ld.(i) = t2.ld.(i) && t1.ea.(i) = t2.ea.(i) && go (i + 1))
  in
  go 0

let check_invariant t =
  if t.size < 0 || t.size > Array.length t.ld || Array.length t.ld <> Array.length t.ea
  then invalid_arg "Frontier.check_invariant: inconsistent size/capacity";
  for i = 1 to t.size - 1 do
    if not (t.ld.(i - 1) < t.ld.(i)) then
      invalid_arg
        (Printf.sprintf "Frontier.check_invariant: ld not strictly increasing at index %d (%g >= %g)"
           i t.ld.(i - 1) t.ld.(i));
    if not (t.ea.(i - 1) < t.ea.(i)) then
      invalid_arg
        (Printf.sprintf "Frontier.check_invariant: ea not strictly increasing at index %d (%g >= %g)"
           i t.ea.(i - 1) t.ea.(i))
  done

let pp fmt t =
  Format.fprintf fmt "@[<h>{";
  for i = 0 to t.size - 1 do
    if i > 0 then Format.fprintf fmt ";@ ";
    Ld_ea.pp fmt { Ld_ea.ld = t.ld.(i); ea = t.ea.(i) }
  done;
  Format.fprintf fmt "}@]"
