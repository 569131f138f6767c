(* Reproduction pins: results EXPERIMENTS.md reports, asserted on the
   seeded presets with the settings of the CLI that produced them, so
   a change that silently moves a headline number fails here. *)

open Omn_core
module Metrics = Omn_obs.Metrics
module Trace = Omn_temporal.Trace

(* Fig. 9's headline on the Infocom05 preset (seed 1), with
   [omn diameter]'s grid, 12 hops and 2 domains. Diameter 6,
   [journey.rounds] and [delay_cdf.segments] pin the results: every
   round's frontiers are the same Pareto antichains whichever way the
   sweep reached them, so a sweep change must not move them. The two
   counters were counted independently of the registry, as the sum of
   the rounds [Journey.run] returns and of [Frontier.size] over every
   frontier [partial_of] accumulates. The other six pin the sweep's
   work, which depends on how it reached them: how many rounds it
   extended from points rather than by a contact scan, the extends
   and candidates of both paths, the candidates the scan's pair rule
   rejected without a frontier search, and the insertion order's
   kept/pruned split. A sweep change may move those six on purpose,
   and then re-pins them. *)
let infocom05_fig9 () =
  let trace = (Omn_mobility.Presets.infocom05 ~seed:1 ()).trace in
  let span = Trace.span trace in
  let grid = Omn_stats.Grid.logarithmic ~lo:(Float.max 1. (span /. 5000.)) ~hi:span ~n:100 in
  let pinned =
    [
      ("frontier.points_kept", 758_137);
      ("frontier.points_pruned", 15_940_586);
      ("journey.candidates", 16_380_751);
      ("journey.extends", 15_873_071);
      ("journey.pair_repeats", 8_674_459);
      ("journey.point_rounds", 236);
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
