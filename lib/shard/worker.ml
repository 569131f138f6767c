module Delay_cdf = Omn_core.Delay_cdf
module Trace_io = Omn_temporal.Trace_io
module Pool = Omn_parallel.Pool
module Retry_io = Omn_robust.Retry_io
module Err = Omn_robust.Err
module Sha256 = Omn_obs.Sha256

type mode = Dial of Transport.addr | Listen of Transport.addr

(* A silent TCP peer (e.g. its machine vanished without a FIN) must not
   hang a blocking read forever; the coordinator pings every heartbeat
   interval, so half a minute of silence means the link is gone. *)
let read_deadline = 30.

(* State that outlives one coordinator session: traces by digest. A
   partitioned worker that redials finds its trace intact, so a rejoin
   re-ships zero trace bytes even without --trace-cache. Results are
   never kept: they live in the coordinator's driver, and a source asked
   for again is computed again. *)
type persist = {
  traces : (string, Omn_temporal.Trace.t) Hashtbl.t;
  watermarks : (int, int) Hashtbl.t;
      (** per-domain cumulative timeline events already shipped in a
          [Stats_push] (dropped + sent), so each push carries only the
          new segment *)
}

(* The new-segment slice of a timeline snapshot: for each domain,
   events recorded since the watermark. Cumulative recorded =
   ring-dropped + live; if more than a ring's worth arrived since the
   last pull the oldest were lost — ship what the ring still holds (the
   loss is visible in the dropped counters). Filtering the sorted view
   preserves chronological order. Advances [watermarks]. *)
let new_segment (view : Omn_obs.Timeline.view) watermarks =
  let live = Hashtbl.create 8 in
  List.iter
    (fun (d, _) ->
      Hashtbl.replace live d (1 + Option.value ~default:0 (Hashtbl.find_opt live d)))
    view.events;
  let skip = Hashtbl.create 8 in
  Hashtbl.iter
    (fun d live_d ->
      let dropped_d = Option.value ~default:0 (List.assoc_opt d view.dropped) in
      let total = dropped_d + live_d in
      let prev = Option.value ~default:0 (Hashtbl.find_opt watermarks d) in
      let take = min (max 0 (total - prev)) live_d in
      Hashtbl.replace skip d (live_d - take);
      Hashtbl.replace watermarks d total)
    live;
  List.iter
    (fun (d, n) -> if not (Hashtbl.mem live d) then Hashtbl.replace watermarks d n)
    view.dropped;
  List.filter
    (fun (d, _) ->
      match Hashtbl.find_opt skip d with
      | Some n when n > 0 ->
        Hashtbl.replace skip d (n - 1);
        false
      | _ -> true)
    view.events

(* Answer to a [Stats_pull]: current metrics (with the timeline's
   per-domain drop counts stamped in as [timeline.dropped_events], so a
   metrics file alone supports --fail-dropped) plus the new timeline
   segment. Relaxed snapshot reads during a pool run are fine — the
   coordinator takes a final quiescent pull before shutdown. *)
let stats_push ~persist ~worker ~t_coord =
  let view = Omn_obs.Timeline.snapshot () in
  let metrics =
    Omn_obs.Metrics.with_counter "timeline.dropped_events" view.dropped
      (Omn_obs.Metrics.snapshot ())
  in
  Proto.Stats_push
    {
      worker;
      t_coord;
      t_worker = Unix.gettimeofday ();
      metrics;
      events = new_segment view persist.watermarks;
      dropped = view.dropped;
    }

(* One coordinator session on a connected descriptor: Hello, Job,
   trace negotiation, Ready, then the compute/heartbeat serve loop.
   [`Done] is a clean Shutdown; [`Lost] any broken-link shape (EOF,
   corrupt frame, timeout during setup, I/O error) — the caller
   decides whether to redial. *)
let session ~persist ~trace_cache ~worker fd =
  let send m = Frame.write fd (Proto.encode_from_worker m) in
  let read_msg () =
    match Frame.read fd with
    | Ok s -> (
      match Proto.decode_to_worker s with Ok m -> `Msg m | Error _ -> `Lost)
    | Error (`Eof | `Corrupt) -> `Lost
    | Error `Timeout -> `Timeout
  in
  try
    send (Proto.Hello { worker = !worker });
    let rec await_job () =
      match read_msg () with
      | `Msg (Proto.Job j) -> `Job j
      | `Msg Proto.Ping ->
        send Proto.Pong;
        await_job ()
      | `Msg (Proto.Stats_pull { t_coord }) ->
        send (stats_push ~persist ~worker:!worker ~t_coord);
        await_job ()
      | `Msg Proto.Shutdown -> `Done
      | `Msg _ | `Lost | `Timeout -> `Lost
    in
    match await_job () with
    | `Done -> `Done
    | `Lost -> `Lost
    | `Job job -> (
      worker := job.Proto.worker;
      let id = job.Proto.worker in
      (* Enabling never changes computed results (PR 3/5 contract); it
         is one-way here so a redial with telemetry off keeps the
         already-accumulated registry for the next pull. *)
      if job.Proto.telemetry then begin
        Omn_obs.Metrics.set_enabled true;
        Omn_obs.Timeline.set_enabled true
      end;
      let memoize text =
        let t = Trace_io.of_string text in
        Hashtbl.replace persist.traces job.trace_digest t;
        t
      in
      let trace =
        match Hashtbl.find_opt persist.traces job.trace_digest with
        | Some t -> `Trace t
        | None -> (
          match
            Option.bind trace_cache (fun dir ->
                Store.get ~dir ~digest:job.trace_digest)
          with
          | Some text -> `Trace (memoize text)
          | None ->
            send (Proto.Need_trace { digest = job.trace_digest });
            let rec await_trace () =
              match read_msg () with
              | `Msg (Proto.Trace_data { digest; text })
                when String.equal digest job.trace_digest ->
                if String.equal (Sha256.string text) digest then begin
                  (match trace_cache with
                  | Some dir -> ignore (Store.put ~dir ~digest text)
                  | None -> ());
                  `Trace (memoize text)
                end
                else `Lost (* shipped bytes don't hash to the digest *)
              | `Msg Proto.Ping ->
                send Proto.Pong;
                await_trace ()
              | `Msg (Proto.Stats_pull { t_coord }) ->
                send (stats_push ~persist ~worker:id ~t_coord);
                await_trace ()
              | `Msg Proto.Shutdown -> `Done
              | `Msg _ | `Lost | `Timeout -> `Lost
            in
            await_trace ())
      in
      match trace with
      | `Done -> `Done
      | `Lost -> `Lost
      | `Trace trace ->
        send (Ready { worker = id });
        let pool =
          if job.domains > 1 then Some (Pool.create ~domains:job.domains ()) else None
        in
        let compute_source source =
          let tl_on = Omn_obs.Timeline.enabled () in
          let start = if tl_on then Unix.gettimeofday () else 0. in
          let partial =
            Delay_cdf.source_partial ~max_hops:job.max_hops ?dests:job.dests
              ?grid:job.grid ?windows:job.windows trace source
            |> Delay_cdf.partial_to_string
          in
          if tl_on then Omn_obs.Timeline.record (Shard_compute { source; start });
          partial
        in
        (* Batch order = arrival order; replies go out on this domain
           once the pool run is over. A source is computed once and a
           raising one is reported, never raised: the coordinator's
           driver fails the run with it, and this worker serves on. *)
        let run_batch batch =
          Pool.run ?pool
            (fun (slot, source) ->
              match compute_source source with
              | partial -> Proto.Result { slot; source; partial }
              | exception e -> Proto.Failed { slot; source; reason = Printexc.to_string e })
            (Array.of_list batch)
          |> Array.iter send
        in
        (* Cap batches so queued Pings are answered between pool runs — a
           worker deep in a huge batch must not look heartbeat-dead. *)
        let batch_cap = max 8 (2 * job.domains) in
        let pending = ref [] in
        let flush () =
          if !pending <> [] then begin
            let rec take k = function
              | x :: rest when k > 0 ->
                let batch, keep = take (k - 1) rest in
                (x :: batch, keep)
              | rest -> ([], rest)
            in
            let batch, keep = take batch_cap (List.rev !pending) in
            run_batch batch;
            pending := List.rev keep
          end
        in
        let readable () =
          match Retry_io.eintr (fun () -> Unix.select [ fd ] [] [] 0.) with
          | [ _ ], _, _ -> true
          | _ -> false
        in
        let rec loop () =
          if !pending <> [] && not (readable ()) then begin
            flush ();
            loop ()
          end
          else
            match Frame.read fd with
            | Error (`Eof | `Corrupt) -> `Lost (* link gone: maybe redial *)
            | Error `Timeout ->
              flush ();
              loop ()
            | Ok s -> (
              match Proto.decode_to_worker s with
              | Error _ -> `Lost
              | Ok Ping ->
                send Pong;
                loop ()
              | Ok Shutdown -> `Done
              | Ok (Compute { slot; source }) ->
                pending := (slot, source) :: !pending;
                loop ()
              | Ok (Stats_pull { t_coord }) ->
                send (stats_push ~persist ~worker:id ~t_coord);
                loop ()
              | Ok (Job _ | Trace_data _) -> loop ())
        in
        let outcome = try loop () with Unix.Unix_error _ -> `Lost in
        (match pool with Some p -> Pool.shutdown p | None -> ());
        outcome)
  with Unix.Unix_error _ -> `Lost

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let main ~worker ~mode ?auth_key ?trace_cache ?(once = false) () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let persist = { traces = Hashtbl.create 4; watermarks = Hashtbl.create 8 } in
  let id = ref worker in
  match mode with
  | Dial addr ->
    (* First connect gets the generous race budget (the coordinator may
       still be binding); redials after a lost link get a short one —
       if the coordinator is really gone, exiting cleanly is correct. *)
    let rec go ~dials ~attempts =
      match Transport.dial ~attempts ~connect_timeout:10. addr with
      | Error e -> if dials = 0 then Error e else Ok ()
      | Ok fd -> (
        match Auth.client ?key:auth_key fd with
        | Error e ->
          close_noerr fd;
          Error e
        | Ok () ->
          (match addr with
          | Transport.Tcp _ -> Transport.set_deadline fd read_deadline
          | Transport.Unix_path _ -> ());
          let outcome = session ~persist ~trace_cache ~worker:id fd in
          close_noerr fd;
          (match outcome with
          | `Done -> Ok ()
          | `Lost when dials < 1000 -> go ~dials:(dials + 1) ~attempts:20
          | `Lost -> Ok ()))
    in
    go ~dials:0 ~attempts:100
  | Listen addr ->
    let lfd = Transport.listen addr in
    Printf.eprintf "omn worker: listening on %s\n%!"
      (Transport.to_string (Transport.bound_addr lfd addr));
    let auth_state = Auth.state () in
    let rec accept_loop () =
      let fd, _ = Retry_io.eintr (fun () -> Unix.accept lfd) in
      Transport.set_deadline fd read_deadline;
      match Auth.server ~state:auth_state ?key:auth_key fd with
      | Error e ->
        (* typed rejection already shipped to the peer; this listener
           keeps serving *)
        Printf.eprintf "omn worker: %s\n%!" (Err.to_string e);
        close_noerr fd;
        accept_loop ()
      | Ok () -> (
        let outcome = session ~persist ~trace_cache ~worker:id fd in
        close_noerr fd;
        match outcome with
        | `Done when once ->
          close_noerr lfd;
          Ok ()
        | `Done | `Lost -> accept_loop ())
    in
    accept_loop ()

(* The coordinator spawns a worker by re-executing its own binary as
   [<exe> worker --id=N --connect ADDR [--trace-cache DIR]]. The CLI
   parses that with its [worker] subcommand; any other binary that
   hosts a coordinator calls this first thing. *)
let hatch () =
  let argv = Sys.argv in
  if Array.length argv >= 2 && argv.(1) = "worker" then begin
    (* both [--flag VALUE] and the glued [--flag=VALUE] form *)
    let arg flag =
      let glued = flag ^ "=" in
      let rec find i =
        if i >= Array.length argv then None
        else if argv.(i) = flag && i + 1 < Array.length argv then Some argv.(i + 1)
        else if String.starts_with ~prefix:glued argv.(i) then
          let n = String.length glued in
          Some (String.sub argv.(i) n (String.length argv.(i) - n))
        else find (i + 1)
      in
      find 2
    in
    let ( let* ) = Result.bind in
    let outcome =
      let* worker =
        match arg "--id" with
        | None -> Ok (-1)
        | Some s -> (
          match int_of_string_opt s with
          | Some id -> Ok id
          | None -> Err.errorf Usage "worker: --id %S is not an integer" s)
      in
      let* mode =
        match arg "--connect" with
        | Some a -> Result.map (fun addr -> Dial addr) (Transport.parse a)
        | None -> Err.error Usage "worker: need --connect"
      in
      let auth_key =
        match arg "--auth-key" with Some _ as k -> k | None -> Sys.getenv_opt "OMN_SHARD_KEY"
      in
      main ~worker ~mode ?auth_key ?trace_cache:(arg "--trace-cache") ()
    in
    match outcome with
    | Ok () -> exit 0
    | Error e ->
      prerr_endline (Err.to_string e);
      exit (Err.exit_code e.code)
  end
