module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

let m_mc_runs = Omn_obs.Metrics.counter "randnet.mc_runs"
let m_contacts = Omn_obs.Metrics.counter "randnet.contacts_generated"

type params = { n : int; lambda : float; horizon : float }

let check params =
  if params.n < 2 then invalid_arg "Continuous: n < 2";
  if not (params.lambda > 0. && params.lambda < infinity) then
    Printf.ksprintf invalid_arg "Continuous: lambda %g is not a positive finite rate"
      params.lambda;
  if not (params.horizon > 0. && params.horizon < infinity) then
    Printf.ksprintf invalid_arg "Continuous: horizon %g is not a positive finite time"
      params.horizon

let generate rng params =
  check params;
  (* Superposition of all pair processes: a single Poisson process of
     total rate n*lambda/2, each event assigned a uniform random pair. *)
  let total_rate = float_of_int params.n *. params.lambda /. 2. in
  let count = Rng.poisson rng (total_rate *. params.horizon) in
  let contacts = ref [] in
  for _ = 1 to count do
    let t = Rng.float_range rng 0. params.horizon in
    let a = Rng.int rng params.n in
    let b =
      let x = Rng.int rng (params.n - 1) in
      if x >= a then x + 1 else x
    in
    contacts := Contact.make ~a ~b ~t_beg:t ~t_end:t :: !contacts
  done;
  Omn_obs.Metrics.add m_contacts count;
  Trace.create ~name:"continuous-random-temporal" ~n_nodes:params.n ~t_start:0.
    ~t_end:params.horizon !contacts

let flood rng params ~source =
  let trace = generate rng params in
  Omn_baseline.Dijkstra.earliest_arrival trace ~source ~t0:0.

let mean_delay_estimate ?pool ?(domains = 1) rng params ~runs =
  check params;
  if runs < 1 then invalid_arg "Continuous.mean_delay_estimate: runs < 1";
  (* Streams split sequentially before the fan-out, samples reduced in
     run order: (mean, stderr) are bit-identical for any domain count. *)
  let streams = Array.make runs rng in
  for i = 0 to runs - 1 do
    streams.(i) <- Rng.split rng
  done;
  let samples =
    Omn_parallel.Pool.run ?pool ~domains
      (fun stream ->
        Omn_obs.Metrics.incr m_mc_runs;
        let arrival = flood stream params ~source:0 in
        Float.min arrival.(1) params.horizon)
      streams
  in
  let n = float_of_int runs in
  let mean = Array.fold_left ( +. ) 0. samples /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples
    /. Float.max 1. (n -. 1.)
  in
  (mean, sqrt (var /. n))
