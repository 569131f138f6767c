type t = {
  values : float array; (* finite support, sorted ascending *)
  cum : float array;    (* cum.(i) = total weight of values.(0..i) *)
  infinite : float;     (* mass at +infinity *)
  total : float;        (* finite mass + infinite mass *)
}

let build pairs extra_inf =
  let finite = ref [] and inf_mass = ref extra_inf in
  Array.iter
    (fun (v, w) ->
      if w < 0. then invalid_arg "Empirical: negative weight";
      if Float.is_nan v then invalid_arg "Empirical: nan value";
      if w > 0. then
        if v = infinity then inf_mass := !inf_mass +. w
        else finite := (v, w) :: !finite)
    pairs;
  let finite = Array.of_list !finite in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) finite;
  (* Merge duplicate values so [support] is a clean staircase. *)
  let merged = ref [] in
  Array.iter
    (fun (v, w) ->
      match !merged with
      | (v', w') :: rest when v' = v -> merged := (v', w' +. w) :: rest
      | _ -> merged := (v, w) :: !merged)
    finite;
  let finite = Array.of_list (List.rev !merged) in
  let n = Array.length finite in
  let values = Array.make n 0. and cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let v, w = finite.(i) in
    values.(i) <- v;
    acc := !acc +. w;
    cum.(i) <- !acc
  done;
  let total = !acc +. !inf_mass in
  if total <= 0. then invalid_arg "Empirical: zero total mass";
  { values; cum; infinite = !inf_mass; total }

let of_weighted ?(extra_infinite_mass = 0.) pairs = build pairs extra_infinite_mass
let of_array a = build (Array.map (fun v -> (v, 1.)) a) 0.
let total_mass t = t.total
let count t = Array.length t.values + if t.infinite > 0. then 1 else 0

(* Index of the last value <= x, or -1. *)
let rank t x =
  let n = Array.length t.values in
  if n = 0 || t.values.(0) > x then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.values.(mid) <= x then lo := mid else hi := mid - 1
    done;
    !lo
  end

let cdf t x =
  if Float.is_nan x then invalid_arg "Empirical.cdf: nan";
  let finite_part =
    let i = rank t x in
    if i < 0 then 0. else t.cum.(i)
  in
  let inf_part = if x = infinity then t.infinite else 0. in
  (finite_part +. inf_part) /. t.total

let ccdf t x = 1. -. cdf t x

let quantile t p =
  if not (0. <= p && p <= 1.) then invalid_arg "Empirical.quantile";
  let target = p *. t.total in
  let n = Array.length t.values in
  if n = 0 then infinity
  else if target > t.cum.(n - 1) then infinity
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) >= target then hi := mid else lo := mid + 1
    done;
    t.values.(!lo)
  end

let finite_mass t = t.total -. t.infinite

let mean_finite t =
  let m = finite_mass t in
  if m <= 0. then nan
  else begin
    let acc = ref 0. and prev = ref 0. in
    Array.iteri
      (fun i v ->
        let w = t.cum.(i) -. !prev in
        prev := t.cum.(i);
        acc := !acc +. (v *. w))
      t.values;
    !acc /. m
  end

let variance_finite t =
  let m = finite_mass t in
  if m <= 0. then nan
  else begin
    let mu = mean_finite t in
    let acc = ref 0. and prev = ref 0. in
    Array.iteri
      (fun i v ->
        let w = t.cum.(i) -. !prev in
        prev := t.cum.(i);
        let d = v -. mu in
        acc := !acc +. (d *. d *. w))
      t.values;
    !acc /. m
  end

let min_finite t = if Array.length t.values = 0 then None else Some t.values.(0)

let max_finite t =
  let n = Array.length t.values in
  if n = 0 then None else Some t.values.(n - 1)

let support t =
  Array.mapi (fun i v -> (v, t.cum.(i))) t.values

let eval t grid =
  let n = Array.length grid in
  let out = Array.make n 0. in
  let j = ref 0 and nv = Array.length t.values in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    if i > 0 && grid.(i) < grid.(i - 1) then invalid_arg "Empirical.eval: grid not ascending";
    while !j < nv && t.values.(!j) <= grid.(i) do
      acc := t.cum.(!j);
      incr j
    done;
    let inf_part = if grid.(i) = infinity then t.infinite else 0. in
    out.(i) <- (!acc +. inf_part) /. t.total
  done;
  out
