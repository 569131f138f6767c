let named_delays = Omn_stats.Grid.delay_named
let delay_grid = Omn_stats.Grid.delay_default

let trace_curves ?(max_hops = 10) ?endpoints trace =
  let endpoints =
    Option.value endpoints
      ~default:(List.init (Omn_temporal.Trace.n_nodes trace) (fun i -> i))
  in
  Omn_core.Delay_cdf.compute ~max_hops ~sources:endpoints ~dests:endpoints ~grid:delay_grid
    trace

let preset_curves ?max_hops (info : Omn_mobility.Presets.info) =
  let endpoints = List.init info.internal_nodes (fun i -> i) in
  trace_curves ?max_hops ~endpoints info.trace

let success_at (curves : Omn_core.Delay_cdf.curves) row delay =
  let idx = ref 0 in
  Array.iteri (fun i d -> if d <= delay then idx := i) curves.grid;
  row.(!idx)

let pp_diameter fmt = function
  | Some d -> Format.pp_print_int fmt d
  | None -> Format.pp_print_string fmt ">K"

let hop_row (curves : Omn_core.Delay_cdf.curves) k =
  if k < 1 || k > Array.length curves.hop_success then invalid_arg "Exp_common.hop_row";
  curves.hop_success.(k - 1)

let table fmt ~header ~rows =
  let all = header :: rows in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make n_cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = String.make (widths.(i) - String.length cell) ' ' in
        if i = 0 then Format.fprintf fmt "%s%s" cell pad
        else Format.fprintf fmt "  %s%s" pad cell)
      row;
    Format.fprintf fmt "@."
  in
  print_row header;
  let rule = List.init n_cols (fun i -> String.make widths.(i) '-') in
  print_row rule;
  List.iter print_row rows
