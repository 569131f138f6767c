let schema = "omn-report 1"

(* ---- small helpers over parsed Json ---------------------------------- *)

let mem path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let fnum j = Json.to_float j
let opt_json = function Some j -> j | None -> Json.Null

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let median sorted = percentile sorted 0.5

(* ---- timeline (Chrome trace JSON) digestion -------------------------- *)

type dom = {
  mutable busy_us : float;
  mutable loops : int;
  mutable stolen_loops : int;
  mutable steals : int;
}

type tally = {
  doms : (int, dom) Hashtbl.t;
  mutable chunk_us : float list;
  mutable ckpt_us : float list;
  mutable rotates : int;
  mutable fallbacks : int;
  mutable io_retries : int;
  mutable gc_samples : int;
  mutable spawns : int;
  mutable heartbeat_misses : int;
  mutable frame_corrupts : int;
  mutable reassigns : int;
  mutable rejoins : int;
  mutable t_min_us : float;
  mutable t_max_us : float;
  mutable events : int;
}

let dom_of t tid =
  match Hashtbl.find_opt t.doms tid with
  | Some d -> d
  | None ->
    let d = { busy_us = 0.; loops = 0; stolen_loops = 0; steals = 0 } in
    Hashtbl.add t.doms tid d;
    d

let tally_event t ev =
  let str k = Option.bind (Json.member k ev) Json.to_str in
  let num k = Option.bind (Json.member k ev) fnum in
  let int_tid = Option.bind (Json.member "tid" ev) Json.to_int in
  match (str "ph", str "name", int_tid) with
  | Some "M", _, _ | None, _, _ | _, None, _ | _, _, None -> ()
  | Some ph, Some name, Some tid ->
    let ts = Option.value ~default:nan (num "ts") in
    let dur = Option.value ~default:0. (num "dur") in
    if Float.is_finite ts then begin
      t.events <- t.events + 1;
      t.t_min_us <- Float.min t.t_min_us ts;
      t.t_max_us <- Float.max t.t_max_us (ts +. dur)
    end;
    (match (ph, name) with
    | "X", "pool.work" ->
      let d = dom_of t tid in
      d.busy_us <- d.busy_us +. dur;
      d.loops <- d.loops + 1;
      if mem [ "args"; "stolen" ] ev |> Option.map Json.to_bool = Some (Some true) then
        d.stolen_loops <- d.stolen_loops + 1
    | "X", "chunk" -> t.chunk_us <- dur :: t.chunk_us
    | "X", "checkpoint.write" -> t.ckpt_us <- dur :: t.ckpt_us
    | _, "steal" -> (dom_of t tid).steals <- (dom_of t tid).steals + 1
    | _, "checkpoint.rotate" -> t.rotates <- t.rotates + 1
    | _, "checkpoint.fallback" -> t.fallbacks <- t.fallbacks + 1
    | _, "io.retry" -> t.io_retries <- t.io_retries + 1
    | _, "worker.spawn" -> t.spawns <- t.spawns + 1
    | _, "heartbeat.miss" -> t.heartbeat_misses <- t.heartbeat_misses + 1
    | _, "frame.corrupt" -> t.frame_corrupts <- t.frame_corrupts + 1
    | _, "reassign" -> t.reassigns <- t.reassigns + 1
    | _, "worker.rejoin" -> t.rejoins <- t.rejoins + 1
    | "C", "gc" -> t.gc_samples <- t.gc_samples + 1
    | _ -> ())

let tally_timeline tl =
  let t =
    {
      doms = Hashtbl.create 8;
      chunk_us = [];
      ckpt_us = [];
      rotates = 0;
      fallbacks = 0;
      io_retries = 0;
      gc_samples = 0;
      spawns = 0;
      heartbeat_misses = 0;
      frame_corrupts = 0;
      reassigns = 0;
      rejoins = 0;
      t_min_us = infinity;
      t_max_us = neg_infinity;
      events = 0;
    }
  in
  (match Option.bind (Json.member "traceEvents" tl) Json.to_list with
  | Some evs -> List.iter (tally_event t) evs
  | None -> ());
  t

let secs us = us /. 1e6

let json_float v = if Float.is_finite v then Json.Float v else Json.Null

let sorted_arr l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* ---- report sections -------------------------------------------------- *)

let domains_section t wall_s =
  let doms = Hashtbl.fold (fun tid d acc -> (tid, d) :: acc) t.doms [] in
  let doms = List.sort compare doms in
  let busy_list = List.map (fun (_, d) -> secs d.busy_us) doms in
  let per_domain =
    Json.Obj
      (List.map
         (fun (tid, d) ->
           let busy = secs d.busy_us in
           let idle =
             match wall_s with
             | Some w when Float.is_finite w -> json_float (Float.max 0. (w -. busy))
             | _ -> Json.Null
           in
           ( string_of_int tid,
             Json.Obj
               [
                 ("busy_s", json_float busy);
                 ("idle_s", idle);
                 ("work_loops", Json.Int d.loops);
                 ("stolen_loops", Json.Int d.stolen_loops);
                 ("steals", Json.Int d.steals);
               ] ))
         doms)
  in
  let n = List.length busy_list in
  let load =
    if n = 0 then Json.Null
    else begin
      let total = List.fold_left ( +. ) 0. busy_list in
      let mx = List.fold_left Float.max neg_infinity busy_list in
      let mean = total /. float_of_int n in
      Json.Obj
        [
          ("busy_total_s", json_float total);
          ("busy_max_s", json_float mx);
          ("busy_mean_s", json_float mean);
          ( "imbalance",
            if mean > 0. then json_float (mx /. mean) else Json.Null );
        ]
    end
  in
  (per_domain, load)

let chunks_section t =
  let a = sorted_arr (List.map secs t.chunk_us) in
  let n = Array.length a in
  if n = 0 then Json.Null
  else begin
    let total = Array.fold_left ( +. ) 0. a in
    let mx = a.(n - 1) and md = median a in
    (* A straggler chunk dominates wall-clock no matter how many domains
       run: flag when the slowest chunk is 3x the median (with enough
       chunks for the median to mean something). *)
    let straggler = n >= 4 && md > 0. && mx > 3. *. md in
    Json.Obj
      [
        ("count", Json.Int n);
        ("total_s", json_float total);
        ("mean_s", json_float (total /. float_of_int n));
        ("median_s", json_float md);
        ("p90_s", json_float (percentile a 0.9));
        ("max_s", json_float mx);
        ("imbalance", if md > 0. then json_float (mx /. md) else Json.Null);
        ("straggler", Json.Bool straggler);
      ]
  end

let checkpoints_section t =
  let a = sorted_arr (List.map secs t.ckpt_us) in
  let n = Array.length a in
  Json.Obj
    ([ ("writes", Json.Int n) ]
    @ (if n = 0 then []
       else
         [
           ("p50_s", json_float (median a));
           ("p90_s", json_float (percentile a 0.9));
           ("max_s", json_float a.(n - 1));
         ])
    @ [ ("rotates", Json.Int t.rotates); ("fallbacks", Json.Int t.fallbacks) ])

let counter_totals metrics =
  match Option.bind (Json.member "counters" metrics) Json.to_obj with
  | None -> []
  | Some fields ->
    List.filter_map
      (fun (name, v) ->
        Option.map (fun total -> (name, total)) (Option.bind (Json.member "total" v) Json.to_int))
      fields

let shard_section t counters =
  let c name = Option.value ~default:0 (List.assoc_opt name counters) in
  let spawns = max t.spawns (c "shard.worker_spawns") in
  let misses = max t.heartbeat_misses (c "shard.heartbeat_misses") in
  let corrupts = max t.frame_corrupts (c "shard.frame_corrupt") in
  let reassigns = max t.reassigns (c "shard.reassigned_sources") in
  let rejoins = max t.rejoins (c "shard.worker_rejoins") in
  let dupes = c "shard.duplicate_results" in
  if spawns + misses + corrupts + reassigns + rejoins + dupes = 0 then Json.Null
  else
    Json.Obj
      [
        ("worker_spawns", Json.Int spawns);
        ("heartbeat_misses", Json.Int misses);
        ("frame_corrupts", Json.Int corrupts);
        ("reassigned_sources", Json.Int reassigns);
        ("worker_rejoins", Json.Int rejoins);
        ("duplicate_results_dropped", Json.Int dupes);
      ]

let resilience_section t counters =
  let c name = Option.value ~default:0 (List.assoc_opt name counters) in
  (* The timeline can undercount (ring overflow); metrics counters never
     drop. Report whichever saw more. *)
  Json.Obj
    [
      ("io_retries", Json.Int (max t.io_retries (c "resilience.io_retries")));
      ("checkpoint_fallbacks", Json.Int (max t.fallbacks (c "delay_cdf.ckpt_fallbacks")));
    ]

(* ---- fleet section ---------------------------------------------------- *)

type fleet_row = {
  mutable fl_busy_us : float;
  mutable fl_ship_bytes : int;
  mutable fl_cache_hits : int;
}

(* Per-worker busy time comes from that worker's own track (its pid in
   the merged trace); trace shipping and cache hits are coordinator-side
   events carrying the target worker in [args.worker]. *)
let fleet_tally tl pids =
  let rows = Hashtbl.create 8 in
  let row_of key =
    match Hashtbl.find_opt rows key with
    | Some r -> r
    | None ->
      let r = { fl_busy_us = 0.; fl_ship_bytes = 0; fl_cache_hits = 0 } in
      Hashtbl.add rows key r;
      r
  in
  let on_event ev =
    let str k = Option.bind (Json.member k ev) Json.to_str in
    let pid = Option.bind (Json.member "pid" ev) Json.to_int in
    let arg_worker = Option.bind (mem [ "args"; "worker" ] ev) Json.to_int in
    match (str "ph", str "name") with
    | Some "X", Some ("shard.compute" | "pool.work") -> (
      match Option.bind pid (fun p -> List.assoc_opt p pids) with
      | Some worker ->
        let dur = Option.value ~default:0. (Option.bind (Json.member "dur" ev) fnum) in
        let r = row_of worker in
        r.fl_busy_us <- r.fl_busy_us +. dur
      | None -> ())
    | _, Some "trace.ship" -> (
      match arg_worker with
      | Some w ->
        let bytes = Option.value ~default:0 (Option.bind (mem [ "args"; "bytes" ] ev) Json.to_int) in
        (row_of w).fl_ship_bytes <- (row_of w).fl_ship_bytes + bytes
      | None -> ())
    | _, Some "trace.cache_hit" -> (
      match arg_worker with
      | Some w -> (row_of w).fl_cache_hits <- (row_of w).fl_cache_hits + 1
      | None -> ())
    | _ -> ()
  in
  (match Option.bind (Json.member "traceEvents" tl) Json.to_list with
  | Some evs -> List.iter on_event evs
  | None -> ());
  rows

let fleet_section timeline wall_s =
  match Option.bind timeline (fun tl -> mem [ "omn"; "fleet" ] tl) with
  | Some (Json.List ((_ :: _) as fleet)) ->
    let tl = Option.get timeline in
    let footer =
      List.filter_map
        (fun w ->
          match
            ( Option.bind (Json.member "worker" w) Json.to_int,
              Option.bind (Json.member "pid" w) Json.to_int )
          with
          | Some worker, Some pid -> Some (worker, pid, w)
          | _ -> None)
        fleet
    in
    let pids = List.map (fun (worker, pid, _) -> (pid, worker)) footer in
    let rows = fleet_tally tl pids in
    let busy_of worker =
      match Hashtbl.find_opt rows worker with Some r -> secs r.fl_busy_us | None -> 0.
    in
    let busies = sorted_arr (List.map (fun (worker, _, _) -> busy_of worker) footer) in
    let md = median busies in
    let n = Array.length busies in
    let mean = Array.fold_left ( +. ) 0. busies /. float_of_int n in
    let mx = if n = 0 then nan else busies.(n - 1) in
    let workers =
      Json.Obj
        (List.map
           (fun (worker, pid, w) ->
             let busy = busy_of worker in
             let idle =
               match wall_s with
               | Some wall when Float.is_finite wall -> json_float (Float.max 0. (wall -. busy))
               | _ -> Json.Null
             in
             let ship, hits =
               match Hashtbl.find_opt rows worker with
               | Some r -> (r.fl_ship_bytes, r.fl_cache_hits)
               | None -> (0, 0)
             in
             let int_of k = Option.value ~default:0 (Option.bind (Json.member k w) Json.to_int) in
             let float_of k = Option.bind (Json.member k w) fnum in
             ( string_of_int worker,
               Json.Obj
                 [
                   ("pid", Json.Int pid);
                   ("busy_s", json_float busy);
                   ("idle_s", idle);
                   ("ship_bytes", Json.Int ship);
                   ("cache_hits", Json.Int hits);
                   ("events", Json.Int (int_of "events"));
                   ("dropped", Json.Int (int_of "dropped"));
                   ( "clock_offset_s",
                     match float_of "clock_offset_s" with Some v -> json_float v | None -> Json.Null );
                   ( "rtt_s",
                     match float_of "rtt_s" with Some v -> json_float v | None -> Json.Null );
                   ("straggler", Json.Bool (n >= 2 && md > 0. && busy > 3. *. md));
                 ] ))
           footer)
    in
    Json.Obj
      [
        ("workers", workers);
        ("busy_max_s", json_float mx);
        ("busy_mean_s", json_float mean);
        ("imbalance", if mean > 0. then json_float (mx /. mean) else Json.Null);
      ]
  | _ -> Json.Null

let build ?metrics ?timeline ?result () =
  let t =
    match timeline with
    | Some tl -> tally_timeline tl
    | None -> tally_timeline (Json.Obj [])
  in
  let manifest =
    let first_some l = List.find_map (fun x -> x) l in
    first_some
      [
        Option.bind result (Json.member "manifest");
        Option.bind timeline (fun tl -> mem [ "omn"; "manifest" ] tl);
        Option.bind metrics (Json.member "manifest");
      ]
  in
  let dropped =
    (* The trace footer and the metrics counter [timeline.dropped_events]
       both record ring drops; a metrics file alone must be enough for
       [--fail-dropped], so take whichever saw more. *)
    let from_timeline =
      match Option.bind timeline (fun tl -> mem [ "omn"; "dropped_events" ] tl) with
      | Some j -> Option.value ~default:0 (Json.to_int j)
      | None -> 0
    in
    let from_metrics =
      match
        Option.bind metrics (fun m -> mem [ "counters"; "timeline.dropped_events"; "total" ] m)
      with
      | Some j -> Option.value ~default:0 (Json.to_int j)
      | None -> 0
    in
    max from_timeline from_metrics
  in
  let wall_s =
    if Float.is_finite t.t_min_us && Float.is_finite t.t_max_us then
      Some (secs (t.t_max_us -. t.t_min_us))
    else None
  in
  let per_domain, load = domains_section t wall_s in
  let counters = match metrics with Some m -> counter_totals m | None -> [] in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("manifest", opt_json manifest);
      ("dropped_events", Json.Int dropped);
      ("wall_s", (match wall_s with Some w -> json_float w | None -> Json.Null));
      ("timeline_events", Json.Int t.events);
      ("gc_samples", Json.Int t.gc_samples);
      ("domains", per_domain);
      ("load", load);
      ("chunks", chunks_section t);
      ("checkpoints", checkpoints_section t);
      ("resilience", resilience_section t counters);
      ("shard", shard_section t counters);
      ("fleet", fleet_section timeline wall_s);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters) );
    ]

let dropped_events report =
  match Option.bind (Json.member "dropped_events" report) Json.to_int with
  | Some n -> n
  | None -> 0

(* ---- human rendering -------------------------------------------------- *)

let pp_float ppf = function
  | Json.Float f -> Format.fprintf ppf "%.4g" f
  | Json.Int i -> Format.fprintf ppf "%d" i
  | _ -> Format.pp_print_string ppf "-"

let get k j = Option.value ~default:Json.Null (Json.member k j)

let pp ppf report =
  let line fmt = Format.fprintf ppf fmt in
  line "omn report@.";
  (match Json.member "manifest" report with
  | Some (Json.Obj _ as m) ->
    let s k = match Option.bind (Json.member k m) Json.to_str with Some v -> v | None -> "-" in
    let cmd =
      match Option.bind (Json.member "cmdline" m) Json.to_list with
      | Some l -> String.concat " " (List.filter_map Json.to_str l)
      | None -> "-"
    in
    line "  run      : %s@." cmd;
    line "  version  : %s (%s, OCaml %s)@." (s "omn_version") (s "git_describe")
      (s "ocaml_version");
    line "  host     : %s, started %s@." (s "hostname") (s "started")
  | _ -> line "  (no manifest)@.");
  (match Json.member "wall_s" report with
  | Some (Json.Float _ as w) -> line "  wall     : %a s@." pp_float w
  | _ -> ());
  line "  events   : %a recorded, %a dropped@." pp_float (get "timeline_events" report)
    pp_float (get "dropped_events" report);
  (match Option.bind (Json.member "domains" report) Json.to_obj with
  | Some ((_ :: _) as doms) ->
    line "  domains  :@.";
    List.iter
      (fun (tid, d) ->
        line "    %s: busy %a s, idle %a s, %a loops (%a stolen), %a steals@." tid pp_float
          (get "busy_s" d) pp_float (get "idle_s" d) pp_float (get "work_loops" d) pp_float
          (get "stolen_loops" d) pp_float (get "steals" d))
      doms;
    (match Json.member "load" report with
    | Some (Json.Obj _ as l) ->
      line "    load imbalance %a (max/mean busy)@." pp_float (get "imbalance" l)
    | _ -> ())
  | _ -> ());
  (match Json.member "chunks" report with
  | Some (Json.Obj _ as c) ->
    line "  chunks   : %a, median %a s, p90 %a s, max %a s, imbalance %a%s@." pp_float
      (get "count" c) pp_float (get "median_s" c) pp_float (get "p90_s" c) pp_float
      (get "max_s" c) pp_float (get "imbalance" c)
      (match Json.member "straggler" c with
      | Some (Json.Bool true) -> "  ** STRAGGLER **"
      | _ -> "")
  | _ -> ());
  (match Json.member "checkpoints" report with
  | Some (Json.Obj _ as c) ->
    line "  ckpts    : %a writes (p50 %a s, p90 %a s, max %a s), %a rotates, %a fallbacks@."
      pp_float (get "writes" c) pp_float (get "p50_s" c) pp_float (get "p90_s" c) pp_float
      (get "max_s" c) pp_float (get "rotates" c) pp_float (get "fallbacks" c)
  | _ -> ());
  (match Json.member "resilience" report with
  | Some (Json.Obj _ as r) ->
    line "  resil.   : %a io retries, %a ckpt fallbacks@." pp_float (get "io_retries" r)
      pp_float (get "checkpoint_fallbacks" r)
  | _ -> ());
  (match Json.member "shard" report with
  | Some (Json.Obj _ as s) ->
    line
      "  shard    : %a spawns, %a hb misses, %a frame corrupts, %a reassigned, %a rejoins, %a dup results dropped@."
      pp_float (get "worker_spawns" s) pp_float (get "heartbeat_misses" s) pp_float
      (get "frame_corrupts" s) pp_float (get "reassigned_sources" s) pp_float
      (get "worker_rejoins" s) pp_float (get "duplicate_results_dropped" s)
  | _ -> ());
  (match Json.member "fleet" report with
  | Some (Json.Obj _ as f) ->
    line "  fleet    :@.";
    (match Option.bind (Json.member "workers" f) Json.to_obj with
    | Some workers ->
      List.iter
        (fun (w, row) ->
          line
            "    worker %s: busy %a s, idle %a s, shipped %a B, %a cache hits, %a events (%a dropped), clock offset %a s%s@."
            w pp_float (get "busy_s" row) pp_float (get "idle_s" row) pp_float
            (get "ship_bytes" row) pp_float (get "cache_hits" row) pp_float (get "events" row)
            pp_float (get "dropped" row) pp_float (get "clock_offset_s" row)
            (match Json.member "straggler" row with
            | Some (Json.Bool true) -> "  ** STRAGGLER **"
            | _ -> ""))
        workers
    | None -> ());
    line "    fleet imbalance %a (max/mean busy)@." pp_float (get "imbalance" f)
  | _ -> ())
