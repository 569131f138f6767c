module Rng = Omn_stats.Rng

type params = { n : int; lambda : float }

let check params =
  if params.n < 2 then invalid_arg "Discrete: n < 2";
  (* written so that NaN fails it *)
  if not (params.lambda > 0. && params.lambda < float_of_int params.n) then
    Printf.ksprintf invalid_arg "Discrete: lambda %g is not in (0, n)" params.lambda

(* Enumerate Bernoulli successes over the n(n-1)/2 pair indices by
   geometric skipping, decoding (i, j) incrementally: pair index order is
   (0,1) (0,2) ... (0,n-1) (1,2) ... *)
let slot_edges rng params =
  check params;
  let n = params.n in
  let p = params.lambda /. float_of_int n in
  let total = n * (n - 1) / 2 in
  let edges = ref [] in
  let rec advance i j skip =
    if j + skip <= n - 1 then (i, j + skip)
    else advance (i + 1) (i + 2) (skip - (n - 1 - j) - 1)
  in
  let rec go idx i j =
    let gap = Rng.geometric rng p in
    let idx = idx + gap in
    if idx < total then begin
      let i, j = advance i j gap in
      edges := (i, j) :: !edges;
      let idx = idx + 1 in
      if idx < total then
        if j + 1 <= n - 1 then go idx i (j + 1) else go idx (i + 1) (i + 2)
    end
  in
  if total > 0 then go 0 0 1;
  !edges

(* The one DP both queries need: reach.(v) = min hops over paths
   delivering to v within the slots processed so far. Short contacts
   relax each slot's edges once, from the pre-slot state; long contacts
   relax to an intra-slot fixpoint (multi-hop chains within the slot). *)
let relax_slot ~case reach edges =
  match (case : Theory.contact_case) with
  | Theory.Short ->
    let prev = Array.copy reach in
    List.iter
      (fun (u, v) ->
        if prev.(u) <> max_int && prev.(u) + 1 < reach.(v) then reach.(v) <- prev.(u) + 1;
        if prev.(v) <> max_int && prev.(v) + 1 < reach.(u) then reach.(u) <- prev.(v) + 1)
      edges
  | Theory.Long ->
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (u, v) ->
          if reach.(u) <> max_int && reach.(u) + 1 < reach.(v) then begin
            reach.(v) <- reach.(u) + 1;
            changed := true
          end;
          if reach.(v) <> max_int && reach.(v) + 1 < reach.(u) then begin
            reach.(u) <- reach.(v) + 1;
            changed := true
          end)
        edges
    done

type flood = { arrival : int array; hops : int array }

let flood rng params ~source ~case ~t_max =
  check params;
  if source < 0 || source >= params.n then invalid_arg "Discrete.flood: bad source";
  if t_max < 0 then invalid_arg "Discrete.flood: negative t_max";
  let n = params.n in
  let reach = Array.make n max_int in
  reach.(source) <- 0;
  let arrival = Array.make n max_int and hops = Array.make n max_int in
  arrival.(source) <- 0;
  hops.(source) <- 0;
  let informed = ref 1 in
  let t = ref 1 in
  while !t <= t_max && !informed < n do
    relax_slot ~case reach (slot_edges rng params);
    Array.iteri
      (fun v r ->
        if r <> max_int && arrival.(v) = max_int then begin
          (* First arrival: [r] is the fewest hops of any path making this
             deadline, i.e. the hop count of the delay-optimal path. *)
          arrival.(v) <- !t;
          hops.(v) <- r;
          incr informed
        end)
      reach;
    incr t
  done;
  { arrival; hops }

let min_hops_within rng params ~source ~case ~deadline =
  check params;
  if source < 0 || source >= params.n then invalid_arg "Discrete.min_hops_within: bad source";
  if deadline < 0 then invalid_arg "Discrete.min_hops_within: negative deadline";
  let reach = Array.make params.n max_int in
  reach.(source) <- 0;
  for _t = 1 to deadline do
    relax_slot ~case reach (slot_edges rng params)
  done;
  reach

let delay_hops_sample rng params ~case ~runs ~t_max =
  check params;
  let out = ref [] in
  for _ = 1 to runs do
    let stream = Rng.split rng in
    let result = flood stream params ~source:0 ~case ~t_max in
    if result.arrival.(1) <> max_int then out := (result.arrival.(1), result.hops.(1)) :: !out
  done;
  List.rev !out

let to_trace rng params ~slots =
  check params;
  if slots < 0 then invalid_arg "Discrete.to_trace: negative slots";
  let contacts = ref [] in
  for t = 1 to slots do
    let time = float_of_int t in
    List.iter
      (fun (a, b) ->
        contacts := Omn_temporal.Contact.make ~a ~b ~t_beg:time ~t_end:time :: !contacts)
      (slot_edges rng params)
  done;
  Omn_temporal.Trace.create ~name:"discrete-random-temporal" ~n_nodes:params.n ~t_start:0.
    ~t_end:(float_of_int (max 1 slots)) !contacts
