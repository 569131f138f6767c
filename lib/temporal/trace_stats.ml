module Empirical = Omn_stats.Empirical

type summary = {
  label : string;
  duration_days : float;
  n_nodes : int;
  active_nodes : int;
  n_contacts : int;
  contact_rate_per_day : float;
  median_duration : float;
  mean_duration : float;
}

let durations trace =
  let { Trace.csr_beg; csr_end; _ } = Trace.time_csr trace in
  Array.init (Array.length csr_beg) (fun i -> csr_end.(i) -. csr_beg.(i))

let duration_distribution trace =
  let d = durations trace in
  if Array.length d = 0 then invalid_arg "Trace_stats.duration_distribution: empty trace";
  Empirical.of_array d

let summary trace =
  let n = Trace.n_contacts trace in
  let median_duration, mean_duration =
    if n = 0 then (nan, nan)
    else begin
      let dist = duration_distribution trace in
      (Empirical.quantile dist 0.5, Empirical.mean_finite dist)
    end
  in
  {
    label = Trace.name trace;
    duration_days = Trace.span trace /. 86400.;
    n_nodes = Trace.n_nodes trace;
    active_nodes = Trace.active_nodes trace;
    n_contacts = n;
    contact_rate_per_day = Trace.contact_rate trace *. 86400.;
    median_duration;
    mean_duration;
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>%s:@,\
    \  duration          %.2f days@,\
    \  devices           %d (%d active)@,\
    \  contacts          %d@,\
    \  contact rate      %.3f /node/day@,\
    \  contact duration  median %s, mean %s@]"
    s.label s.duration_days s.n_nodes s.active_nodes s.n_contacts s.contact_rate_per_day
    (Omn_stats.Timefmt.duration s.median_duration)
    (Omn_stats.Timefmt.duration s.mean_duration)

let duration_ccdf trace grid =
  let dist = duration_distribution trace in
  Array.map (fun g -> Empirical.ccdf dist g) grid

let fraction_duration_leq trace threshold =
  let n = Trace.n_contacts trace in
  if n = 0 then 0.
  else begin
    let { Trace.csr_beg; csr_end; _ } = Trace.time_csr trace in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if csr_end.(i) -. csr_beg.(i) <= threshold then incr k
    done;
    float_of_int !k /. float_of_int n
  end

(* A contact's predecessor in its pair is [csr_prev], so each gap is
   one subtraction; [Empirical] sorts, so their order does not matter. *)
let inter_contact_times trace =
  let { Trace.csr_beg; csr_end; csr_prev; _ } = Trace.time_csr trace in
  let gaps = ref [] in
  Array.iteri
    (fun i p -> if p >= 0 then gaps := Float.max 0. (csr_beg.(i) -. csr_end.(p)) :: !gaps)
    csr_prev;
  match !gaps with
  | [] -> None
  | gaps -> Some (Empirical.of_array (Array.of_list gaps))

let next_contact_steps trace u =
  (* Union the node's contact intervals, then emit the staircase. *)
  let intervals =
    Array.to_list (Trace.node_contacts trace u)
    |> List.map (fun (c : Contact.t) -> (c.t_beg, c.t_end))
    |> List.sort compare
  in
  let merged =
    List.fold_left
      (fun acc (b, e) ->
        match acc with
        | (b', e') :: rest when b <= e' -> (b', Float.max e e') :: rest
        | _ -> (b, e) :: acc)
      [] intervals
    |> List.rev
  in
  let t_stop = Trace.t_end trace in
  let rec emit t = function
    | [] -> if t <= t_stop then [ (t, infinity) ] else []
    | (b, e) :: rest ->
      if t < b then (t, b) :: (b, b) :: emit b ((b, e) :: rest)
      else (* inside the interval: the diagonal until e *)
        (e, e) :: emit (Float.succ e) rest
  in
  match merged with
  | [] -> [ (Trace.t_start trace, infinity) ]
  | (b, _) :: _ ->
    let head = if Trace.t_start trace < b then [ (Trace.t_start trace, b) ] else [] in
    head @ emit b merged

let contacts_per_window trace ~window =
  if window <= 0. then invalid_arg "Trace_stats.contacts_per_window: window <= 0";
  let t0 = Trace.t_start trace in
  let n_windows = int_of_float (Float.ceil (Trace.span trace /. window)) in
  let n_windows = max n_windows 1 in
  let counts = Array.make n_windows 0 in
  Array.iter
    (fun t_beg ->
      let idx = int_of_float ((t_beg -. t0) /. window) in
      let idx = min (n_windows - 1) (max 0 idx) in
      counts.(idx) <- counts.(idx) + 1)
    (Trace.time_csr trace).csr_beg;
  Array.mapi (fun i k -> (t0 +. (float_of_int i *. window), k)) counts
