module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

type law = Exponential | Pareto of float | Log_normal of float | Uniform

let sample_gap rng law ~mean =
  if mean <= 0. then invalid_arg "Renewal.sample_gap: mean <= 0";
  match law with
  | Exponential -> Rng.exponential rng (1. /. mean)
  | Pareto alpha ->
    if alpha <= 1. then invalid_arg "Renewal: Pareto needs alpha > 1";
    (* mean of Pareto(alpha, x_min) is x_min * alpha / (alpha - 1) *)
    let x_min = mean *. (alpha -. 1.) /. alpha in
    Rng.pareto rng alpha x_min
  | Log_normal sigma ->
    if sigma < 0. then invalid_arg "Renewal: negative sigma";
    (* mean of LogNormal(mu, sigma) is exp (mu + sigma^2 / 2) *)
    let mu = log mean -. (sigma *. sigma /. 2.) in
    Rng.log_normal rng mu sigma
  | Uniform -> Rng.float_range rng 0. (2. *. mean)

type params = { n : int; lambda : float; horizon : float; law : law }

(* NaN fails both guards; an infinite horizon would never end
   [generate]'s renewal loop. *)
let check p =
  if p.n < 2 then invalid_arg "Renewal: n < 2";
  if not (p.lambda > 0. && p.lambda < infinity) then
    Printf.ksprintf invalid_arg "Renewal: lambda %g is not a positive finite rate" p.lambda;
  if not (p.horizon > 0. && p.horizon < infinity) then
    Printf.ksprintf invalid_arg "Renewal: horizon %g is not a positive finite time" p.horizon

let generate rng p =
  check p;
  let mean_gap = float_of_int (p.n - 1) /. p.lambda in
  let contacts = ref [] in
  for a = 0 to p.n - 1 do
    for b = a + 1 to p.n - 1 do
      (* Random phase start, then renewal gaps. *)
      let t = ref (Rng.float rng *. sample_gap rng p.law ~mean:mean_gap) in
      while !t < p.horizon do
        contacts := Contact.make ~a ~b ~t_beg:!t ~t_end:!t :: !contacts;
        t := !t +. sample_gap rng p.law ~mean:mean_gap
      done
    done
  done;
  Trace.create ~name:"renewal-temporal" ~n_nodes:p.n ~t_start:0. ~t_end:p.horizon !contacts

type path_stats = {
  delay_mean : float;
  delay_p90 : float;
  hops_mean : float;
  runs_delivered : int;
  runs_total : int;
}

let optimal_path_stats rng p ~runs =
  check p;
  if runs < 1 then invalid_arg "Renewal.optimal_path_stats: runs < 1";
  let delays = ref [] and hops = ref [] in
  for _ = 1 to runs do
    let stream = Rng.split rng in
    let trace = generate stream p in
    let t0 = 0.1 *. p.horizon in
    let arrival = Omn_baseline.Dijkstra.earliest_arrival trace ~source:0 ~t0 in
    if arrival.(1) < infinity then begin
      delays := (arrival.(1) -. t0) :: !delays;
      (* Minimum hops achieving that arrival: first Bellman-Ford row that
         matches the unbounded optimum. *)
      let max_hops = p.n + 2 in
      let rows = Omn_baseline.Dijkstra.earliest_arrival_bounded trace ~source:0 ~t0 ~max_hops in
      let rec find k = if k > max_hops then max_hops else if rows.(k).(1) <= arrival.(1) then k else find (k + 1) in
      hops := find 1 :: !hops
    end
  done;
  let delivered = List.length !delays in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  let p90 l =
    match List.sort Float.compare l with
    | [] -> nan
    | sorted -> List.nth sorted (min (List.length sorted - 1) (9 * List.length sorted / 10))
  in
  {
    delay_mean = mean !delays;
    delay_p90 = p90 !delays;
    hops_mean = mean (List.map float_of_int !hops);
    runs_delivered = delivered;
    runs_total = runs;
  }
