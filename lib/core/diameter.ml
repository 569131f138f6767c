type result = { diameter : int option; epsilon : float; curves : Delay_cdf.curves }

let reaches_everywhere ~epsilon (curves : Delay_cdf.curves) k =
  let bar = 1. -. epsilon in
  let ok = ref (curves.hop_success_inf.(k - 1) >= bar *. curves.flood_success_inf) in
  if !ok then begin
    let hop = curves.hop_success.(k - 1) in
    (try
       Array.iteri
         (fun i flood ->
           if hop.(i) < bar *. flood then begin
             ok := false;
             raise Exit
           end)
         curves.flood_success
     with Exit -> ())
  end;
  !ok

let check_epsilon fn epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    Printf.ksprintf invalid_arg "Diameter.%s: epsilon %g out of (0,1)" fn epsilon

let of_curves ?(epsilon = 0.01) (curves : Delay_cdf.curves) =
  check_epsilon "of_curves" epsilon;
  let max_hops = Array.length curves.hop_success in
  let rec search k =
    if k > max_hops then None
    else if reaches_everywhere ~epsilon curves k then Some k
    else search (k + 1)
  in
  search 1

let vs_delay ?(epsilon = 0.01) (curves : Delay_cdf.curves) =
  check_epsilon "vs_delay" epsilon;
  let bar = 1. -. epsilon in
  let max_hops = Array.length curves.hop_success in
  Array.mapi
    (fun i d ->
      let flood = curves.flood_success.(i) in
      let rec search k =
        if k > max_hops then None
        else if curves.hop_success.(k - 1).(i) >= bar *. flood then Some k
        else search (k + 1)
      in
      (d, search 1))
    curves.grid

let measure ?(epsilon = 0.01) ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows trace =
  Omn_obs.Span.with_ ~name:"diameter.measure" @@ fun () ->
  let curves = Delay_cdf.compute ?max_hops ?sources ?dests ?grid ?pool ?domains ?windows trace in
  { diameter = of_curves ~epsilon curves; epsilon; curves }
