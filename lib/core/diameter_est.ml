type estimate = {
  diameter : int option;
  epsilon : float;
  curves : Delay_cdf.curves;
  ci_lo : int option;
  ci_hi : int option;
  confidence : float;
  ci_width : float;
  sampled : int;
  total : int;
  rounds : int;
  exhaustive : bool;
  partial : bool;
  ckpt_fallback : bool;
}

let estimate ?(epsilon = 0.01) ?max_hops ?(sample = 64) ?(seed = 0) ?(ci_width = 1.)
    ?(confidence = 0.9) ?(bootstrap = 200) ?sources ?dests ?grid ?pool ?domains ?windows
    ?checkpoint ?resume ?budget_seconds ?clock ?report ?partials_of trace =
  Omn_obs.Span.with_ ~name:"diameter.estimate" @@ fun () ->
  let ( let* ) = Result.bind in
  let* plan = Delay_cdf.plan ?max_hops ?sources ?dests ?grid ?windows ~seed trace in
  let report =
    Option.map
      (fun r (p : Delay_cdf.progress) -> function
        | Some (s : Driver.sample) ->
          r ~round:s.rounds ~sampled:p.sources_done ~total:p.sources_total ~width:s.width
        | None -> ())
      report
  in
  let* o =
    Driver.run ?pool ?domains ?partials_of ?checkpoint ?resume ?budget_seconds ?clock ?report
      ~sampling:{ sample; ci_width; confidence; bootstrap; epsilon }
      plan
  in
  let s = Option.get o.sample in
  Ok
    {
      diameter = s.diameter;
      epsilon;
      curves = o.curves;
      ci_lo = s.ci_lo;
      ci_hi = s.ci_hi;
      confidence;
      ci_width = s.width;
      sampled = o.progress.sources_done;
      total = o.progress.sources_total;
      rounds = s.rounds;
      exhaustive = s.exhaustive;
      partial = o.progress.partial;
      ckpt_fallback = o.progress.ckpt_fallback;
    }
