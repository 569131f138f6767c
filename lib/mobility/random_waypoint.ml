module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

type params = {
  n : int;
  area : float;
  v_min : float;
  v_max : float;
  mean_pause : float;
  range : float;
  horizon : float;
  dt : float;
}

let default =
  {
    n = 40;
    area = 500.;
    v_min = 0.5;
    v_max = 1.5;
    mean_pause = 60.;
    range = 30.;
    horizon = 6. *. 3600.;
    dt = 1.;
  }

let check p =
  if p.n < 1 then invalid_arg "Random_waypoint: n < 1";
  List.iter
    (fun (name, x) ->
      if not (x > 0. && x < infinity) then
        Printf.ksprintf invalid_arg "Random_waypoint: %s %g is not a positive finite number" name x)
    [ ("area", p.area); ("range", p.range); ("horizon", p.horizon); ("dt", p.dt) ];
  if not (0. < p.v_min && p.v_min <= p.v_max) then invalid_arg "Random_waypoint: bad speeds";
  if p.mean_pause < 0. then invalid_arg "Random_waypoint: negative pause"

(* One node's trajectory, as a function of time built from a leg list.
   Legs: (t0, t1, x0, y0, x1, y1) - linear motion; pauses are legs with
   equal endpoints. *)
type leg = { t0 : float; t1 : float; x0 : float; y0 : float; x1 : float; y1 : float }

let trajectory rng p =
  let legs = ref [] in
  let t = ref 0. and x = ref (Rng.float_range rng 0. p.area)
  and y = ref (Rng.float_range rng 0. p.area) in
  while !t < p.horizon do
    (* travel leg *)
    let tx = Rng.float_range rng 0. p.area and ty = Rng.float_range rng 0. p.area in
    let speed = Rng.float_range rng p.v_min p.v_max in
    let dist = Float.hypot (tx -. !x) (ty -. !y) in
    let dur = dist /. speed in
    legs := { t0 = !t; t1 = !t +. dur; x0 = !x; y0 = !y; x1 = tx; y1 = ty } :: !legs;
    t := !t +. dur;
    x := tx;
    y := ty;
    (* pause leg *)
    if p.mean_pause > 0. && !t < p.horizon then begin
      let pause = Rng.exponential rng (1. /. p.mean_pause) in
      legs := { t0 = !t; t1 = !t +. pause; x0 = !x; y0 = !y; x1 = !x; y1 = !y } :: !legs;
      t := !t +. pause
    end
  done;
  Array.of_list (List.rev !legs)

let position_on legs time =
  (* Legs are contiguous from 0; binary search the covering leg. *)
  let lo = ref 0 and hi = ref (Array.length legs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if legs.(mid).t1 < time then lo := mid + 1 else hi := mid
  done;
  let leg = legs.(!lo) in
  let span = leg.t1 -. leg.t0 in
  let frac = if span <= 0. then 0. else Float.max 0. (Float.min 1. ((time -. leg.t0) /. span)) in
  (leg.x0 +. (frac *. (leg.x1 -. leg.x0)), leg.y0 +. (frac *. (leg.y1 -. leg.y0)))

let trajectories rng p = Array.init p.n (fun _ -> trajectory rng p)

let positions_at rng p ~times =
  check p;
  let trajs = trajectories rng p in
  Array.map (fun time -> Array.map (fun legs -> position_on legs time) trajs) times

let generate rng p =
  check p;
  let trajs = trajectories rng p in
  let steps = int_of_float (Float.floor (p.horizon /. p.dt)) in
  let n = p.n in
  (* open_since.(i).(j) for i < j: sample index at which current proximity
     run started, or -1. *)
  let open_since = Array.make_matrix n n (-1) in
  let contacts = ref [] in
  let close i j ~from_step ~upto_time =
    let t_beg = float_of_int from_step *. p.dt in
    contacts := Contact.make ~a:i ~b:j ~t_beg ~t_end:upto_time :: !contacts
  in
  let range2 = p.range *. p.range in
  let pos = Array.make n (0., 0.) in
  for k = 0 to steps do
    let time = float_of_int k *. p.dt in
    for v = 0 to n - 1 do
      pos.(v) <- position_on trajs.(v) time
    done;
    for i = 0 to n - 1 do
      let xi, yi = pos.(i) in
      for j = i + 1 to n - 1 do
        let xj, yj = pos.(j) in
        let dx = xi -. xj and dy = yi -. yj in
        let near = (dx *. dx) +. (dy *. dy) <= range2 in
        if near && open_since.(i).(j) < 0 then open_since.(i).(j) <- k
        else if (not near) && open_since.(i).(j) >= 0 then begin
          close i j ~from_step:open_since.(i).(j) ~upto_time:(float_of_int (k - 1) *. p.dt);
          open_since.(i).(j) <- -1
        end
      done
    done
  done;
  let final_time = float_of_int steps *. p.dt in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if open_since.(i).(j) >= 0 then close i j ~from_step:open_since.(i).(j) ~upto_time:final_time
    done
  done;
  Trace.create ~name:"random-waypoint" ~n_nodes:n ~t_start:0. ~t_end:p.horizon !contacts
