module Trace = Omn_temporal.Trace
module Pool = Omn_parallel.Pool
module Supervise = Omn_parallel.Supervise
module Metrics = Omn_obs.Metrics
module Timeline = Omn_obs.Timeline
module Err = Omn_robust.Err
module Checkpoint = Omn_robust.Checkpoint

let m_batch_s = Metrics.histogram "delay_cdf.chunk_seconds"
let m_ckpt_s = Metrics.histogram "delay_cdf.checkpoint_seconds"
let m_ckpt_fallback = Metrics.counter "delay_cdf.ckpt_fallbacks"
let m_quarantined = Metrics.counter "delay_cdf.sources_quarantined"
let m_rounds = Metrics.counter "sample.rounds"
let m_sampled = Metrics.counter "sample.sources_sampled"
let m_boot = Metrics.counter "sample.bootstrap_resamples"
let g_width = Metrics.gauge "sample.ci_width"

type sampling = {
  sample : int;
  ci_width : float;
  confidence : float;
  bootstrap : int;
  epsilon : float;
}

type sample = {
  diameter : int option;
  ci_lo : int option;
  ci_hi : int option;
  width : float;
  rounds : int;
  exhaustive : bool;
}

type outcome = { curves : Delay_cdf.curves; progress : Delay_cdf.progress; sample : sample option }

(* Test hook (see the statistical coverage suite): a perturbation is
   applied to {e every} diameter the sampling rule derives from a curve
   set — the point estimate and each bootstrap replicate — so a
   deliberately broken estimator shifts its CI wholesale instead of
   silently re-centering around the biased point. *)
let perturb : (int option -> int option) option ref = ref None
let set_perturb f = perturb := f

(* --- checkpoint: the completed partials --- *)

(* Partials are keyed by merge position, so resuming needs no chunk
   size: the processed sources are always a prefix of the plan's
   processing order, completed or quarantined. *)
type snapshot = {
  snap_fingerprint : string;
  snap_batches : int;
  snap_done : (int * Delay_cdf.partial) list;  (* (position, partial), latest first *)
  snap_degraded : (int * int * string) list;  (* [Supervise.failure_to_tuple], latest first *)
}

let ckpt_magic = "omn-ckpt 4\n"

(* The trace enters through its store's arrays, which marshal flat;
   [csr_prev] is derived from them. *)
let fingerprint (plan : Delay_cdf.plan) sampling =
  let trace = plan.trace in
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Trace.name trace, Trace.n_nodes trace, Trace.t_start trace, Trace.t_end trace,
            (csr_a, csr_b, csr_beg, csr_end), plan.max_hops, plan.grid, plan.is_dest,
            plan.windows, plan.sources, plan.order, sampling )
          []))

(* Current generation first; any failure (corruption, bad fingerprint)
   falls back to the rotated previous generation. *)
let load_checkpoint ~fp path =
  let decode payload =
    match (Marshal.from_string payload 0 : snapshot) with
    | exception _ -> Err.error ~file:path Err.Checkpoint "unreadable payload"
    | snap when snap.snap_fingerprint <> fp ->
      Err.error ~file:path Err.Checkpoint "checkpoint was built for a different trace or parameters"
    | snap -> Ok snap
  in
  Checkpoint.load ~magic:ckpt_magic ~validate:decode path

(* --- the sampling stop rule --- *)

(* The point estimate over the completed partials (processing order)
   and a percentile bootstrap CI: resample [k] of them with
   replacement, fold, re-derive the diameter. [None] (no diameter
   within max_hops) sits at the sentinel [max_hops + 1] so it orders
   above every finite diameter. The interval is unioned with the point
   estimate so the reported CI always contains it. *)
let assess (plan : Delay_cdf.plan) (s : sampling) ~round ~total completed =
  let diameter_of curves =
    let d = Diameter.of_curves ~epsilon:s.epsilon curves in
    match !perturb with None -> d | Some f -> f d
  in
  let k = Array.length completed in
  let curves = Delay_cdf.fold plan (Array.to_list completed) in
  let point = diameter_of curves in
  let exhaustive = k = total in
  let ci_lo, ci_hi, width =
    if exhaustive then (point, point, 0.)
    else begin
      let to_sent = function Some d -> d | None -> plan.max_hops + 1 in
      let of_sent d = if d > plan.max_hops then None else Some d in
      let rng = Omn_stats.Rng.create (plan.seed lxor (round * 1_000_003)) in
      let ds =
        Array.init s.bootstrap (fun _ ->
            let draw = List.init k (fun _ -> completed.(Omn_stats.Rng.int rng k)) in
            to_sent (diameter_of (Delay_cdf.fold plan draw)))
      in
      Metrics.add m_boot s.bootstrap;
      Array.sort compare ds;
      let alpha = 1. -. s.confidence in
      let b = float_of_int (s.bootstrap - 1) in
      let lo_i = int_of_float (Float.floor (alpha /. 2. *. b)) in
      let hi_i = int_of_float (Float.ceil ((1. -. (alpha /. 2.)) *. b)) in
      let lo = min ds.(lo_i) (to_sent point) and hi = max ds.(hi_i) (to_sent point) in
      (of_sent lo, of_sent hi, float_of_int (hi - lo))
    end
  in
  Metrics.incr m_rounds;
  Metrics.set g_width width;
  Timeline.record (Sample_round { round; sampled = k; width });
  (curves, { diameter = point; ci_lo; ci_hi; width; rounds = round; exhaustive })

(* --- the loop --- *)

let run ?pool ?(domains = 1) ?partials_of ?supervise ?checkpoint ?(resume = false)
    ?(checkpoint_every = 8) ?budget_seconds ?(clock = Sys.time) ?report ?sampling
    (plan : Delay_cdf.plan) =
  try
    let usage fmt =
      Printf.ksprintf (fun msg -> raise (Err.Error (Err.v Err.Usage ("Driver.run: " ^ msg)))) fmt
    in
    if domains < 1 then usage "domains %d < 1" domains;
    if checkpoint_every < 1 then usage "checkpoint_every %d < 1" checkpoint_every;
    Option.iter (fun b -> if b < 0. then usage "negative budget %g" b) budget_seconds;
    if supervise <> None && sampling <> None then
      usage "supervision does not combine with sampling";
    Option.iter
      (fun (s : sampling) ->
        if s.sample < 1 then usage "sample %d must be at least 1" s.sample;
        if not (s.ci_width > 0.) then usage "ci-width %g must be positive" s.ci_width;
        if not (s.epsilon > 0. && s.epsilon < 1.) then usage "epsilon %g out of (0,1)" s.epsilon;
        if not (s.confidence > 0. && s.confidence < 1.) then
          usage "confidence %g out of (0,1)" s.confidence;
        if s.bootstrap < 1 then usage "bootstrap %d must be at least 1" s.bootstrap)
      sampling;
    let fp = lazy (fingerprint plan sampling) in
    let start, ckpt_fallback =
      match checkpoint with
      | Some path
        when resume && (Sys.file_exists path || Sys.file_exists (Checkpoint.prev_path path)) ->
        let snap, gen = Err.get_exn (load_checkpoint ~fp:(Lazy.force fp) path) in
        let fallback = gen = Checkpoint.Previous in
        if fallback then begin
          Metrics.incr m_ckpt_fallback;
          Timeline.record (Ckpt_fallback { path })
        end;
        (snap, fallback)
      | _ ->
        ({ snap_fingerprint = ""; snap_batches = 0; snap_done = []; snap_degraded = [] }, false)
    in
    let total = Array.length plan.order in
    let completed = ref start.snap_done in
    let degraded = ref (List.map Supervise.failure_of_tuple start.snap_degraded) in
    let batches = ref start.snap_batches in
    let processed = ref (List.length !completed + List.length !degraded) in
    (* One pool for the whole run; a borrowed pool is left to its owner. *)
    let owned =
      if pool = None && domains > 1 && partials_of = None then Some (Pool.create ~domains ())
      else None
    in
    let pool = match pool with Some _ -> pool | None -> owned in
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown owned) @@ fun () ->
    Omn_obs.Span.with_ ~name:"driver.run" @@ fun () ->
    let execute positions =
      let nodes = Array.map (fun i -> plan.sources.(i)) positions in
      let keep j p = completed := (positions.(j), p) :: !completed in
      (* A failed source is quarantined only under a quarantining
         policy; otherwise it fails the run, whichever executor ran it. *)
      let settle j = function
        | Ok p -> keep j p
        | Error (f : Supervise.failure) -> (
          match supervise with
          | Some { Supervise.quarantine = true; _ } ->
            Metrics.incr m_quarantined;
            degraded := f :: !degraded
          | _ ->
            raise
              (Err.Error
                 (Err.errf Err.Compute "source task failed: source %d after %d attempt(s): %s"
                    f.item f.attempts f.reason)))
      in
      (match (partials_of, supervise) with
      | Some f, _ ->
        let rs = f (Array.to_list nodes) in
        if List.length rs <> Array.length nodes then
          raise
            (Err.Error
               (Err.v Err.Compute
                  (Printf.sprintf "Driver.run: partials_of returned %d results for %d sources"
                     (List.length rs) (Array.length nodes))));
        List.iteri settle rs
      | None, Some policy ->
        Array.iteri settle
          (Supervise.map ?pool ~domains ~id:Fun.id policy (Delay_cdf.partial_of plan) nodes)
      | None, None -> Array.iteri keep (Pool.run ?pool ~domains (Delay_cdf.partial_of plan) nodes));
      processed := !processed + Array.length positions
    in
    (* Sampling rounds double the sample; otherwise a run is one batch
       unless a checkpoint, a budget or a reporter needs a barrier. *)
    let next_batch () =
      let upto =
        match sampling with
        | Some (s : sampling) ->
          if !processed = 0 then min s.sample total else min total (2 * !processed)
        | None ->
          if checkpoint <> None || budget_seconds <> None || report <> None then
            min total (!processed + checkpoint_every)
          else total
      in
      Array.sub plan.order !processed (upto - !processed)
    in
    let progress ~partial =
      {
        Delay_cdf.sources_done = !processed;
        sources_total = total;
        partial;
        degraded = List.rev !degraded;
        ckpt_fallback;
      }
    in
    (* Clock reads for batch/checkpoint latency happen only when metrics
       or the timeline are on; the disabled path is timing-free. *)
    let timed = Metrics.enabled () || Timeline.enabled () in
    let save path =
      let t0 = if timed then Unix.gettimeofday () else 0. in
      Checkpoint.save ~magic:ckpt_magic ~path
        (Marshal.to_string
           {
             snap_fingerprint = Lazy.force fp;
             snap_batches = !batches;
             snap_done = !completed;
             snap_degraded = List.map Supervise.failure_to_tuple !degraded;
           }
           []);
      if timed then begin
        let t1 = Unix.gettimeofday () in
        Metrics.observe m_ckpt_s (t1 -. t0);
        Timeline.record ~ts:t1 (Ckpt_write { path; seconds = t1 -. t0 })
      end
    in
    let t_run = clock () in
    let rec loop () =
      let batch = next_batch () in
      let t0 = if timed then Unix.gettimeofday () else 0. in
      execute batch;
      if sampling <> None then Metrics.add m_sampled (Array.length batch);
      if timed then begin
        let t1 = Unix.gettimeofday () in
        Metrics.observe m_batch_s (t1 -. t0);
        Timeline.record ~ts:t1 (Chunk { index = !batches; items = Array.length batch; start = t0 });
        if Timeline.enabled () then begin
          let gc = Gc.quick_stat () in
          Timeline.record ~ts:t1
            (Gc_sample
               {
                 minor = gc.Gc.minor_collections;
                 major = gc.Gc.major_collections;
                 heap_words = gc.Gc.heap_words;
               })
        end
      end;
      incr batches;
      let curves, sample, finished =
        match sampling with
        | None -> (None, None, !processed = total)
        | Some s ->
          let curves, st =
            assess plan s ~round:!batches ~total (Array.of_list (List.rev !completed))
          in
          (Some curves, Some st, st.exhaustive || st.width <= s.ci_width)
      in
      Option.iter (fun r -> r (progress ~partial:(not finished)) sample) report;
      if finished then begin
        Option.iter Checkpoint.remove checkpoint;
        (curves, sample, false)
      end
      else begin
        Option.iter save checkpoint;
        match budget_seconds with
        | Some b when clock () -. t_run >= b -> (curves, sample, true)
        | _ -> loop ()
      end
    in
    let curves, sample, partial = loop () in
    let curves = match curves with Some c -> c | None -> Delay_cdf.fold plan !completed in
    Ok { curves; progress = progress ~partial; sample }
  with
  | Err.Error e -> Error e
  | Invalid_argument msg -> Error (Err.v Err.Usage msg)
  | Sys_error msg -> Error (Err.v Err.Io msg)
  | Failure msg ->
    (* A source task failed with supervision off (or quarantine
       disabled): fail the whole run with a typed error rather than
       leaking the worker's exception through the result API. *)
    Error (Err.v Err.Compute ("source task failed: " ^ msg))
