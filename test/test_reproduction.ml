(* Reproduction pins: results EXPERIMENTS.md reports, asserted on the
   seeded presets with the settings of the CLI that produced them, so
   a change that silently moves a headline number fails here. *)

open Omn_core
module Metrics = Omn_obs.Metrics
module Trace = Omn_temporal.Trace

(* Fig. 9's headline on the Infocom05 preset (seed 1), with
   [omn diameter]'s grid, 12 hops and 2 domains. The counters pin the
   journey sweep's work: a sweep change may make candidates cheaper,
   but not change which are emitted, kept or pruned, nor how many the
   pair rule rejects without a frontier search. The last two pin the
   rounds and the accumulation's walk: their values were counted
   independently of the counters, as the sum of the rounds
   [Journey.run] returns and of [Frontier.size] over every frontier
   [partial_of] accumulates. *)
let infocom05_fig9 () =
  let trace = (Omn_mobility.Presets.infocom05 ~seed:1 ()).trace in
  let span = Trace.span trace in
  let grid = Omn_stats.Grid.logarithmic ~lo:(Float.max 1. (span /. 5000.)) ~hi:span ~n:100 in
  let pinned =
    [
      ("frontier.points_kept", 757_775);
      ("frontier.points_pruned", 21_349_507);
      ("journey.candidates", 21_789_672);
      ("journey.extends", 23_233_620);
      ("journey.pair_repeats", 13_847_511);
      ("journey.rounds", 466);
      ("delay_cdf.segments", 5_126_297);
    ]
  in
  let totals () =
    let snap = Metrics.snapshot () in
    List.map (fun (name, _) -> Option.value ~default:0 (Metrics.counter_total snap name)) pinned
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let curves, counted =
    Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
    let before = totals () in
    let curves = Delay_cdf.compute ~max_hops:12 ~grid ~domains:2 trace in
    (curves, List.map2 ( - ) (totals ()) before)
  in
  let diff =
    (match Diameter.of_curves ~epsilon:0.01 curves with
    | Some 6 -> []
    | got ->
      [
        Printf.sprintf "  diameter (eps 0.01): pinned 6, got %s"
          (match got with Some d -> string_of_int d | None -> "none");
      ])
    @ List.concat
        (List.map2
           (fun (name, want) got ->
             if got = want then []
             else [ Printf.sprintf "  %s: pinned %d, got %d (%+d)" name want got (got - want) ])
           pinned counted)
  in
  if diff <> [] then
    Alcotest.failf "Infocom05 (seed 1) moved from its pins:\n%s" (String.concat "\n" diff)

let suite =
  [ Alcotest.test_case "Fig. 9: Infocom05 diameter 6 and sweep counters" `Quick infocom05_fig9 ]
