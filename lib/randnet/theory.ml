type contact_case = Short | Long

let xlnx x = if x = 0. then 0. else x *. log x

let h x =
  if not (0. <= x && x <= 1.) then invalid_arg "Theory.h: outside [0,1]";
  -.xlnx x -. xlnx (1. -. x)

let g x =
  if x < 0. then invalid_arg "Theory.g: negative";
  ((1. +. x) *. log (1. +. x)) -. xlnx x

let check_lambda lambda =
  if not (lambda > 0. && lambda < infinity) then
    Printf.ksprintf invalid_arg "Theory: lambda %g is not a positive finite rate" lambda

let exponent case ~lambda ~gamma =
  check_lambda lambda;
  match case with
  | Short -> (gamma *. log lambda) +. h gamma
  | Long -> (gamma *. log lambda) +. g gamma

let expected_paths_exponent case ~lambda ~tau ~gamma =
  if tau <= 0. then invalid_arg "Theory.expected_paths_exponent: tau <= 0";
  -1. +. (tau *. exponent case ~lambda ~gamma)

let exponent_max case ~lambda =
  check_lambda lambda;
  match case with
  | Short -> log (1. +. lambda)
  | Long -> if lambda < 1. then -.log (1. -. lambda) else infinity

let gamma_star case ~lambda =
  check_lambda lambda;
  match case with
  | Short -> lambda /. (1. +. lambda)
  | Long -> if lambda < 1. then lambda /. (1. -. lambda) else infinity

let tau_critical case ~lambda =
  let m = exponent_max case ~lambda in
  if m = infinity then 0. else 1. /. m

let hop_coefficient case ~lambda =
  check_lambda lambda;
  match case with
  | Short -> lambda /. ((1. +. lambda) *. log (1. +. lambda))
  | Long ->
    if lambda < 1. then lambda /. ((1. -. lambda) *. -.log (1. -. lambda))
    else if lambda = 1. then infinity
    else 1. /. log lambda

let expected_delay case ~lambda ~n =
  if n < 2 then invalid_arg "Theory.expected_delay: n < 2";
  tau_critical case ~lambda *. log (float_of_int n)

let expected_hops case ~lambda ~n =
  if n < 2 then invalid_arg "Theory.expected_hops: n < 2";
  hop_coefficient case ~lambda *. log (float_of_int n)

let supercritical_gamma_interval case ~lambda ~tau =
  if tau <= 0. then invalid_arg "Theory.supercritical_gamma_interval: tau <= 0";
  let target = 1. /. tau in
  let f gamma = exponent case ~lambda ~gamma -. target in
  let peak = gamma_star case ~lambda in
  let upper_bound = match case with Short -> 1. | Long -> 1e6 in
  let peak = Float.min peak upper_bound in
  if f peak < 0. then None
  else begin
    (* f is concave in the short case and for λ < 1 in the long case; for
       λ >= 1 (long) it is increasing, handled by the capped bounds. f is
       continuous, negative at the domain edges (or capped), positive at
       the peak: bisect on each side. *)
    let bisect lo hi =
      (* invariant: sign(f lo) <> sign(f hi) or one of them is ~0 *)
      let lo = ref lo and hi = ref hi in
      for _ = 1 to 100 do
        let mid = 0.5 *. (!lo +. !hi) in
        if f mid >= 0. = (f !hi >= 0.) then hi := mid else lo := mid
      done;
      0.5 *. (!lo +. !hi)
    in
    let g1 = if f 0. >= 0. then 0. else bisect 0. peak in
    let g2 =
      if f upper_bound >= 0. then upper_bound
      else bisect upper_bound peak
    in
    Some (Float.min g1 g2, Float.max g1 g2)
  end
