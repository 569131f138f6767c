(* Traced in-process replica of `omn diameter', for per-layer timing.

   The benchmark times the omn executable end to end with tracing off.
   This program repeats the same computation from public library calls
   only and records a span around every call into a layer module, so
   the time of a solve can be attributed to Trace_io, Trace_stream,
   Trace, Transform, Journey, Frontier, Delay_cdf, Diameter_est and
   Pool. The exact replica is the per-source loop of
   [Delay_cdf.compute]:

   - [Journey.run ~on_round] for each source;
   - [Delay_cdf.add_pair_frontier] inside [on_round], then again for
     the hop bounds past the fixpoint and for flooding;
   - [Delay_cdf.merge_into] in source order.

   Its curves (or, for the sampled estimator, its estimate) must equal
   the untraced library result bit for bit; the outcome of that check
   is part of the output.

   Usage:
     replica.exe exact --input FILE --max-hops K --spans OUT
     replica.exe thin --input FILE --max-hops K --thin P:SEED:FILE ... --spans OUT
     replica.exe sampled --input INDEX --flat FILE --max-hops K --sample N
       --ci-width W --spans OUT
     replica.exe sha256 FILE ...

   Prints one JSON object of raw measurements on stdout. Spans are kept
   in memory and written once, at the end, as Chrome trace-event JSON
   (open OUT in ui.perfetto.dev). *)

module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Trace_stream = Omn_temporal.Trace_stream
module Transform = Omn_temporal.Transform
module Journey = Omn_core.Journey
module Frontier = Omn_core.Frontier
module Delay_cdf = Omn_core.Delay_cdf
module Diameter = Omn_core.Diameter
module Diameter_est = Omn_core.Diameter_est
module Metrics = Omn_obs.Metrics
module Json = Omn_obs.Json

let now = Unix.gettimeofday

(* --- spans --- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  t0 : float;
  mutable t1 : float;
  mutable args : (string * Json.t) list;
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0

let with_span ?(args = []) name f =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let s = { id = !next_id; name; parent; t0 = now (); t1 = 0.; args } in
  incr next_id;
  open_spans := s :: !open_spans;
  let close () =
    s.t1 <- now ();
    open_spans := List.tl !open_spans;
    spans := s :: !spans
  in
  match f s with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let write_spans path =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let event s =
    Json.Obj
      [
        ("name", String s.name); ("ph", String "X"); ("ts", Float ((s.t0 -. base) *. 1e6));
        ("dur", Float ((s.t1 -. s.t0) *. 1e6)); ("pid", Int 1); ("tid", Int 1);
        ("args", Obj (("id", Int s.id) :: ("parent", Int s.parent) :: s.args));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", List (List.map event all)) ])))

(* --- helpers --- *)

let ok_or_die what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Omn_robust.Err.to_string e)

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_curves (a : Delay_cdf.curves) (b : Delay_cdf.curves) =
  same_floats a.grid b.grid
  && Array.length a.hop_success = Array.length b.hop_success
  && Array.for_all2 same_floats a.hop_success b.hop_success
  && same_floats a.hop_success_inf b.hop_success_inf
  && same_floats a.flood_success b.flood_success
  && same_float a.flood_success_inf b.flood_success_inf
  && a.max_rounds_used = b.max_rounds_used

let same_estimate (a : Diameter_est.estimate) (b : Diameter_est.estimate) =
  a.diameter = b.diameter && a.ci_lo = b.ci_lo && a.ci_hi = b.ci_hi && a.sampled = b.sampled
  && a.rounds = b.rounds && same_float a.ci_width b.ci_width && a.exhaustive = b.exhaustive
  && same_curves a.curves b.curves

let same_trace a b =
  Trace.n_nodes a = Trace.n_nodes b
  && same_float (Trace.t_start a) (Trace.t_start b)
  && same_float (Trace.t_end a) (Trace.t_end b)
  && Trace.contacts a = Trace.contacts b

(* The delay grid `omn diameter' derives from the trace. *)
let cli_grid trace =
  let span = Trace.span trace in
  Omn_stats.Grid.logarithmic ~lo:(Float.max 1. (span /. 5000.)) ~hi:span ~n:100

(* Root spans carry the contact count: a round is sparse relative to it. *)
let size_args trace = [ ("n_contacts", Json.Int (Trace.n_contacts trace)) ]

let epsilon = 0.01
let mismatches = ref []
let check what ok = if not ok then mismatches := what :: !mismatches

(* Run [f] with the default metrics registry zeroed and enabled; return
   its value and the registry snapshot. *)
let with_registry f =
  Metrics.reset ();
  Metrics.set_enabled true;
  let v = Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f in
  (v, Metrics.snapshot ())

let counter snap name = Option.value (Metrics.counter_total snap name) ~default:0
let gauge snap name = Option.value (Metrics.gauge_total snap name) ~default:0.

(* Mean seconds per call of [f], repeated at least three times and
   until 0.2 s have elapsed. *)
let mean_time f =
  let reps = ref 0 and total = ref 0. in
  while !total < 0.2 || !reps < 3 do
    let t0 = now () in
    f ();
    total := !total +. (now () -. t0);
    incr reps
  done;
  !total /. float_of_int !reps

(* --- layer calls, each under its span --- *)

let load_io path =
  with_span "trace_io.load" (fun _ -> fst (ok_or_die path (Trace_io.load_result path)))

let load_stream path =
  with_span "trace_stream.load" (fun _ -> fst (ok_or_die path (Trace_stream.load_result path)))

(* Heap retained by the value [load] returns, with a full major GC
   before and after; decimal megabytes. *)
let live_mb load =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let w0 = live () in
  let v = load () in
  let w1 = live () in
  (v, float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. 1e6)

let create_probe trace =
  let contacts = Array.copy (Trace.contacts trace) in
  with_span "trace.create" (fun _ ->
      ignore
        (ok_or_die "Trace.create_array_result"
           (Trace.create_array_result ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
              ~t_start:(Trace.t_start trace) ~t_end:(Trace.t_end trace) contacts)))

(* Both parsers on the same bytes: a speed comparison, and a check that
   they agree on the contacts. Small files are parsed three times. *)
let parse_probe path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let reps = if String.length text < 4_000_000 then 3 else 1 in
  for _ = 1 to reps do
    let a = with_span "trace_io.parse" (fun _ -> fst (ok_or_die path (Trace_io.parse text))) in
    let b =
      with_span "trace_stream.parse" (fun _ -> fst (ok_or_die path (Trace_stream.parse text)))
    in
    check ("Trace_io.parse and Trace_stream.parse disagree on " ^ path) (same_trace a b)
  done

(* --- the exact replica --- *)

let replica ~max_hops ~grid ~sources trace =
  let t_start = Trace.t_start trace and t_end = Trace.t_end trace in
  let fresh () =
    with_span "delay_cdf.create" (fun _ ->
        (Array.init max_hops (fun _ -> Delay_cdf.create ~grid), Delay_cdf.create ~grid))
  in
  let hop_accs, flood_acc = fresh () in
  let max_rounds = ref 0 in
  (* One span per accumulation pass over the destinations; [hop] 0 is
     the flooding accumulator, [acc = None] a round past [max_hops]. *)
  let accumulate ~hop ~changed ~in_round acc source frontiers =
    with_span "delay_cdf.accumulate" (fun s ->
        let calls = ref 0 in
        Option.iter
          (fun acc ->
            Array.iteri
              (fun dest f ->
                if dest <> source then begin
                  Delay_cdf.add_pair_frontier acc ~t_start ~t_end f;
                  incr calls
                end)
              frontiers)
          acc;
        s.args <-
          [
            ("hop", Json.Int hop); ("changed", Int changed); ("calls", Int !calls);
            ("in_round", Bool in_round);
          ])
  in
  List.iter
    (fun source ->
      with_span "source" ~args:[ ("source", Json.Int source) ] (fun _ ->
          let s_hops, s_flood = fresh () in
          let on_round (info : Journey.round_info) =
            let acc = if info.hop <= max_hops then Some s_hops.(info.hop - 1) else None in
            accumulate ~hop:info.hop ~changed:info.changed ~in_round:true acc source
              info.frontiers
          in
          let frontiers, rounds =
            with_span "journey.run" (fun s ->
                let ((_, rounds) as r) = Journey.run ~on_round trace ~source in
                s.args <- [ ("rounds", Json.Int rounds) ];
                r)
          in
          max_rounds := max !max_rounds rounds;
          for k = rounds + 1 to max_hops do
            accumulate ~hop:k ~changed:0 ~in_round:false (Some s_hops.(k - 1)) source frontiers
          done;
          accumulate ~hop:0 ~changed:0 ~in_round:false (Some s_flood) source frontiers;
          with_span "delay_cdf.merge" (fun _ ->
              Array.iteri (fun i acc -> Delay_cdf.merge_into ~dst:hop_accs.(i) acc) s_hops;
              Delay_cdf.merge_into ~dst:flood_acc s_flood)))
    sources;
  with_span "delay_cdf.success" (fun _ ->
      {
        Delay_cdf.grid = Array.copy grid;
        hop_success = Array.map Delay_cdf.success hop_accs;
        hop_success_inf = Array.map Delay_cdf.success_inf hop_accs;
        flood_success = Delay_cdf.success flood_acc;
        flood_success_inf = Delay_cdf.success_inf flood_acc;
        max_rounds_used = !max_rounds;
      })

(* --- frontier pass: unchanged re-adds and an insert_pt sequence ---

   A second, untraced run of the journeys, kept apart so the frontier
   copies it needs do not inflate the accumulation time. For every
   hop-k accumulation (2 <= k <= max_hops, including hops past the
   fixpoint) it counts whether the destination's frontier equals the
   one accumulated at hop k-1. It also captures, per round, the points
   each frontier gained (points that later get dominated included) as
   a replayable (destination, ld, ea) sequence, up to [cap] points. *)

type capture = {
  mutable dests : int array;
  mutable lds : float array;
  mutable eas : float array;
  mutable len : int;
  mutable starts : int list;  (** sequence offset of each source, newest first *)
  cap : int;
}

let push c dest ld ea =
  if c.len < c.cap then begin
    if c.len = Array.length c.lds then begin
      let grow a zero =
        let b = Array.make (2 * Array.length a) zero in
        Array.blit a 0 b 0 c.len;
        b
      in
      c.dests <- grow c.dests 0;
      c.lds <- grow c.lds 0.;
      c.eas <- grow c.eas 0.
    end;
    c.dests.(c.len) <- dest;
    c.lds.(c.len) <- ld;
    c.eas.(c.len) <- ea;
    c.len <- c.len + 1
  end

let frontier_pass ~max_hops ~sources ~cap trace =
  let n = Trace.n_nodes trace in
  let c =
    {
      dests = Array.make 1024 0; lds = Array.make 1024 0.; eas = Array.make 1024 0.; len = 0;
      starts = []; cap;
    }
  in
  let unchanged = ref 0 and calls = ref 0 in
  let prev = Array.init n (fun _ -> Frontier.create ()) in
  List.iter
    (fun source ->
      Array.iter Frontier.clear prev;
      if c.len < c.cap then c.starts <- c.len :: c.starts;
      let note hop frontiers =
        Array.iteri
          (fun dest f ->
            if dest <> source then begin
              let same = Frontier.equal f prev.(dest) in
              if hop >= 2 && hop <= max_hops then begin
                incr calls;
                if same then incr unchanged
              end;
              if not same then begin
                for i = 0 to Frontier.size f - 1 do
                  let p = Frontier.get f i in
                  if not (Frontier.mem_dominated prev.(dest) p) then push c dest p.ld p.ea
                done;
                Frontier.copy_into ~src:f ~dst:prev.(dest)
              end
            end)
          frontiers
      in
      let frontiers, rounds =
        Journey.run ~on_round:(fun info -> note info.hop info.frontiers) trace ~source
      in
      for k = rounds + 1 to max_hops do
        note k frontiers
      done)
    sources;
  (c, !unchanged, !calls)

(* ns per [Frontier.insert_pt], replaying the captured sequence into
   one frontier per destination, reset between sources. *)
let insert_probe n_nodes c =
  if c.len = 0 then 0.
  else begin
    let fs = Array.init n_nodes (fun _ -> Frontier.create ()) in
    let starts = Array.of_list (List.rev c.starts) in
    let replay () =
      Array.iteri
        (fun si start ->
          let stop = if si + 1 < Array.length starts then starts.(si + 1) else c.len in
          Array.iter Frontier.clear fs;
          for i = start to stop - 1 do
            ignore (Frontier.insert_pt fs.(c.dests.(i)) ~ld:c.lds.(i) ~ea:c.eas.(i))
          done)
        starts
    in
    let per_replay = with_span "frontier.insert_pt" (fun _ -> mean_time replay) in
    per_replay /. float_of_int c.len *. 1e9
  end

(* Mean payload bytes and mean [partial_to_string] + [partial_of_string]
   seconds, per source. *)
let codec_probe partials =
  let k = float_of_int (List.length partials) in
  let bytes =
    List.fold_left (fun acc p -> acc + String.length (Delay_cdf.partial_to_string p)) 0 partials
  in
  let round_trip () =
    List.iter
      (fun p ->
        match Delay_cdf.partial_of_string (Delay_cdf.partial_to_string p) with
        | Ok _ -> ()
        | Error e -> failwith e)
      partials
  in
  let per_pass = mean_time round_trip in
  (float_of_int bytes /. k, per_pass /. k)

let probe_sources n = List.filteri (fun i _ -> i < 4) (Delay_cdf.uniform_order (List.init n Fun.id))

(* Everything but the 2-domain pool run, for one trace. *)
let solve_exact ~max_hops trace =
  let grid = cli_grid trace in
  let n = Trace.n_nodes trace in
  let sources = List.init n Fun.id in
  let t0 = now () in
  let reference = Delay_cdf.compute ~max_hops ~grid trace in
  let untraced_s = now () -. t0 in
  let curves, snap =
    with_registry (fun () ->
        with_span "solve" ~args:(size_args trace) (fun _ ->
            replica ~max_hops ~grid ~sources trace))
  in
  let identical = same_curves curves reference in
  check (Printf.sprintf "replica curves differ from Delay_cdf.compute (%s)" (Trace.name trace))
    identical;
  let c, unchanged, calls = frontier_pass ~max_hops ~sources ~cap:1_000_000 trace in
  let insert_ns = insert_probe n c in
  let partials =
    List.map (fun s -> Delay_cdf.source_partial ~max_hops ~grid trace s) (probe_sources n)
  in
  let partial_bytes, partial_codec_s = codec_probe partials in
  let fields =
    Json.
      [
        ("n_nodes", Int n); ("n_contacts", Int (Trace.n_contacts trace));
        ("untraced_s", Float untraced_s); ("identical", Bool identical);
        ( "diameter",
          match Diameter.of_curves ~epsilon curves with Some d -> Int d | None -> Null );
        ("points_kept", Int (counter snap "frontier.points_kept"));
        ("points_pruned", Int (counter snap "frontier.points_pruned"));
        ("unchanged_adds", Int unchanged); ("hopk_calls", Int calls);
        ("insert_points", Int c.len); ("insert_ns", Float insert_ns);
        ("partial_bytes", Float partial_bytes); ("partial_codec_s", Float partial_codec_s);
      ]
  in
  (fields, grid, reference)

(* [Delay_cdf.compute] on a 2-domain pool, with the registry on. Run
   after all 1-domain work: a multi-domain pool enlarges the minor heap
   of the calling domain for the rest of the process. *)
let pool_exact ~max_hops ~grid reference trace =
  let curves, snap =
    with_registry (fun () ->
        with_span "pool.compute" (fun _ -> Delay_cdf.compute ~max_hops ~grid ~domains:2 trace))
  in
  let identical = same_curves curves reference in
  check "2-domain Delay_cdf.compute differs from 1 domain" identical;
  Json.
    [
      ("pool_busy_s", Float (gauge snap "pool.busy_seconds"));
      ("pool_tasks_stolen", Int (counter snap "pool.tasks_stolen"));
      ("pool_identical", Bool identical);
    ]

(* --- modes --- *)

let exact ~input ~max_hops =
  let trace, live = live_mb (fun () -> load_io input) in
  ignore (load_stream input);
  create_probe trace;
  parse_probe input;
  let fields, grid, reference = solve_exact ~max_hops trace in
  let pool = pool_exact ~max_hops ~grid reference trace in
  Json.[ ("live_mb", Float live); ("traces", List [ Obj (fields @ pool) ]) ]

let parse_thin spec =
  match String.split_on_char ':' spec with
  | [ p; seed; file ] -> (float_of_string p, int_of_string seed, file)
  | _ -> failwith ("bad --thin " ^ spec)

let thin ~input ~max_hops specs =
  let live = ref 0. in
  let solved =
    List.mapi
      (fun i (p, seed, file) ->
        let base =
          if i = 0 then begin
            let t, mb = live_mb (fun () -> load_io input) in
            live := mb;
            t
          end
          else load_io input
        in
        let thinned =
          with_span "transform.remove_random" (fun _ ->
              Transform.remove_random ~rng:(Omn_stats.Rng.create seed) ~p base)
        in
        let loaded = load_io file in
        check
          (Printf.sprintf "Transform.remove_random ~p:%g seed %d differs from %s" p seed file)
          (same_trace thinned loaded);
        create_probe loaded;
        let fields, grid, reference = solve_exact ~max_hops loaded in
        (loaded, grid, reference, Json.(("p", Float p) :: ("seed", Int seed) :: fields)))
      specs
  in
  ignore (load_stream input);
  parse_probe input;
  let traces =
    List.map
      (fun (trace, grid, reference, fields) ->
        Json.Obj (fields @ pool_exact ~max_hops ~grid reference trace))
      solved
  in
  Json.[ ("live_mb", Float !live); ("traces", List traces) ]

let sampled ~input ~flat ~max_hops ~sample ~ci_width =
  let trace, live = live_mb (fun () -> load_stream input) in
  Trace_io.save trace flat;
  check "Trace_io reload of the streamed trace differs" (same_trace trace (load_io flat));
  create_probe trace;
  parse_probe flat;
  let grid = cli_grid trace in
  let estimate ?partials_of ~domains () =
    ok_or_die "Diameter_est.estimate"
      (Diameter_est.estimate ~epsilon ~max_hops ~sample ~seed:0 ~ci_width ~confidence:0.9
         ~bootstrap:200 ~grid ~domains ~clock:Unix.gettimeofday ?partials_of trace)
  in
  let t0 = now () in
  let reference = estimate ~domains:1 () in
  let untraced_s = now () -. t0 in
  let batches = ref [] and partials = ref [] in
  let partials_of batch =
    with_span "diameter_est.partials" (fun _ ->
        let ps = List.map (fun s -> Delay_cdf.source_partial ~max_hops ~grid trace s) batch in
        batches := !batches @ batch;
        partials := !partials @ ps;
        ps)
  in
  let est, _ =
    with_registry (fun () ->
        with_span "solve" ~args:(size_args trace) (fun _ ->
            with_span "diameter_est.estimate" (fun _ -> estimate ~partials_of ~domains:1 ())))
  in
  let identical = same_estimate est reference in
  check "traced Diameter_est.estimate differs from the untraced one" identical;
  (* The journeys of the sampled sources, replayed with per-layer spans;
     merged in ascending source order they are the estimate's curves. *)
  let sources = List.sort compare !batches in
  let curves, snap =
    with_registry (fun () ->
        with_span "probe" ~args:(size_args trace) (fun _ ->
            replica ~max_hops ~grid ~sources trace))
  in
  let replica_identical = same_curves curves est.curves in
  check "replica curves of the sampled sources differ from the estimate's" replica_identical;
  let c, unchanged, calls = frontier_pass ~max_hops ~sources ~cap:1_000_000 trace in
  let insert_ns = insert_probe (Trace.n_nodes trace) c in
  let partial_bytes, partial_codec_s = codec_probe !partials in
  let est2, pool_snap = with_registry (fun () -> estimate ~domains:2 ()) in
  let pool_identical = same_estimate est2 reference in
  check "2-domain Diameter_est.estimate differs from 1 domain" pool_identical;
  let opt = function Some d -> Json.Int d | None -> Json.Null in
  Json.
    [
      ("live_mb", Float live);
      ( "traces",
        List
          [
            Obj
              [
                ("n_nodes", Int (Trace.n_nodes trace));
                ("n_contacts", Int (Trace.n_contacts trace));
                ("untraced_s", Float untraced_s); ("identical", Bool (identical && replica_identical));
                ("diameter", opt est.diameter); ("ci_lo", opt est.ci_lo); ("ci_hi", opt est.ci_hi);
                ("sampled", Int est.sampled); ("rounds", Int est.rounds);
                ("sampled_sources", List (List.map (fun s -> Int s) sources));
                ("points_kept", Int (counter snap "frontier.points_kept"));
                ("points_pruned", Int (counter snap "frontier.points_pruned"));
                ("unchanged_adds", Int unchanged); ("hopk_calls", Int calls);
                ("insert_points", Int c.len); ("insert_ns", Float insert_ns);
                ("partial_bytes", Float partial_bytes); ("partial_codec_s", Float partial_codec_s);
                ("pool_busy_s", Float (gauge pool_snap "pool.busy_seconds"));
                ("pool_tasks_stolen", Int (counter pool_snap "pool.tasks_stolen"));
                ("pool_identical", Bool pool_identical);
              ];
          ] );
    ]

(* --- command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec values name = function
    | k :: v :: rest when k = name -> v :: values name rest
    | _ :: rest -> values name rest
    | [] -> []
  in
  let value name =
    match values name args with v :: _ -> v | [] -> failwith ("missing " ^ name)
  in
  let int name = int_of_string (value name) in
  let run mode =
    let fields =
      match mode with
      | "exact" -> exact ~input:(value "--input") ~max_hops:(int "--max-hops")
      | "thin" ->
        thin ~input:(value "--input") ~max_hops:(int "--max-hops")
          (List.map parse_thin (values "--thin" args))
      | "sampled" ->
        sampled ~input:(value "--input") ~flat:(value "--flat") ~max_hops:(int "--max-hops")
          ~sample:(int "--sample") ~ci_width:(float_of_string (value "--ci-width"))
      | m -> failwith ("unknown mode " ^ m)
    in
    write_spans (value "--spans");
    let mismatches = List.rev_map (fun m -> Json.String m) !mismatches in
    Json.Obj
      (("mode", Json.String mode) :: ("identical", Bool (mismatches = []))
       :: ("mismatches", List mismatches) :: fields)
  in
  match args with
  | "sha256" :: files ->
    print_endline
      (Json.to_string (Json.Obj (List.map (fun f -> (f, Json.String (Omn_obs.Sha256.file f))) files)))
  | mode :: _ -> (
    match run mode with
    | json -> print_endline (Json.to_string json)
    | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      prerr_endline ("replica: " ^ msg);
      exit 1)
  | [] ->
    prerr_endline "usage: replica.exe (exact|thin|sampled|sha256) ...";
    exit 2
