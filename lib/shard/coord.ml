module Delay_cdf = Omn_core.Delay_cdf
module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Faultgen = Omn_robust.Faultgen
module Err = Omn_robust.Err
module Retry_io = Omn_robust.Retry_io
module Timeline = Omn_obs.Timeline
module Metrics = Omn_obs.Metrics
module Sha256 = Omn_obs.Sha256

let m_spawns = Metrics.counter "shard.worker_spawns"
let m_misses = Metrics.counter "shard.heartbeat_misses"
let m_corrupt = Metrics.counter "shard.frame_corrupt"
let m_reassigned = Metrics.counter "shard.reassigned_sources"
let m_rejoins = Metrics.counter "shard.worker_rejoins"
let m_duplicates = Metrics.counter "shard.duplicate_results"
let m_auth_rejects = Metrics.counter "shard.net.auth_rejects"
let m_partitions = Metrics.counter "shard.net.partitions"
let m_ship_bytes = Metrics.counter "shard.net.trace_bytes_shipped"
let m_cache_hits = Metrics.counter "shard.net.trace_cache_hits"
let m_dup_frames = Metrics.counter "shard.net.dup_frames"
let m_joins = Metrics.counter "shard.members_joined"
let m_leaves = Metrics.counter "shard.members_left"

(* respawns (or re-dials, for peers) per worker after its first *)
let max_respawns = 2

type config = {
  workers : int;
  worker_domains : int;
  max_inflight : int;
  heartbeat_interval : float;
  heartbeat_timeout : float;
  respawn_backoff : float;
  chaos : Faultgen.shard_event list;
  listen : Transport.addr option;
  peers : Transport.addr list;
  auth_key : string option;
  worker_trace_cache : string option;
  telemetry : bool;
  stats_interval : float;
  stat_addr : Transport.addr option;
  on_stat_bound : (Transport.addr -> unit) option;
}

let default ~workers =
  {
    workers;
    worker_domains = 1;
    max_inflight = 32;
    heartbeat_interval = 0.25;
    heartbeat_timeout = 5.;
    respawn_backoff = 0.1;
    chaos = [];
    listen = None;
    peers = [];
    auth_key = None;
    worker_trace_cache = None;
    telemetry = false;
    stats_interval = 1.;
    stat_addr = None;
    on_stat_bound = None;
  }

type telemetry = {
  tw_worker : int;
  tw_metrics : Metrics.snapshot;
  tw_events : (int * Timeline.entry) list;
  tw_dropped : (int * int) list;
  tw_offset : float;
  tw_rtt : float;
}

(* coordinator-side accumulator for one worker's pushes *)
type tel_acc = {
  mutable ta_metrics : Metrics.snapshot;  (* latest full snapshot wins *)
  mutable ta_segments : (int * Timeline.entry) list list;  (* newest first *)
  mutable ta_dropped : (int * int) list;
  mutable ta_offset : float;
  mutable ta_rtt : float;  (* lowest-RTT sample keeps the offset *)
  mutable ta_last_tcoord : float;  (* echo of the latest answered pull *)
}

type stats = {
  spawns : int;
  heartbeat_misses : int;
  frame_corrupts : int;
  reassigned : int;
  rejoins : int;
  duplicates : int;
  auth_rejects : int;
  partitions : int;
  trace_ship_bytes : int;
  trace_cache_hits : int;
  joins : int;
  leaves : int;
  fleet : telemetry list;
}

type kind = Spawned | Dialed of Transport.addr

(* per-worker runtime state *)
type wstate = {
  id : int;
  kind : kind;
  initial : bool;  (* part of the fleet the dispatch barrier waits for *)
  mutable pid : int;  (* 0 = not running / not ours *)
  mutable conn : Unix.file_descr option;
  mutable ready : bool;
  mutable had_ready : bool;  (* completed a handshake at least once *)
  mutable shipped : bool;  (* trace bytes shipped in the current session *)
  mutable last_seen : float;
  mutable respawns : int;  (* -1 before the first spawn / dial *)
  mutable next_spawn_at : float;
  mutable gone : bool;  (* respawn / redial budget exhausted *)
  mutable left : bool;  (* departed gracefully: never respawn *)
  mutable mangle_next : bool;  (* sock-corrupt chaos flag *)
  mutable dup_next : bool;  (* net-dup chaos flag *)
  mutable slow_until : float;  (* net-slow chaos window *)
  mutable inflight : int;  (* slots currently Assigned to this worker *)
}

type sstate =
  | Pending
  | Assigned of int
  | Acked of string
  | Raised of Delay_cdf.failure

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A peer that refused our credentials or speaks another protocol will
   refuse every retry identically — abort. A handshake that timed out
   or hit a dropped link may succeed on redial. *)
let auth_fatal (e : Err.t) =
  e.code = Err.Proto || contains e.msg "rejected by peer" || contains e.msg "key proof"

let env_with_key key =
  let keep s = not (String.length s >= 14 && String.equal (String.sub s 0 14) "OMN_SHARD_KEY=") in
  let base = List.filter keep (Array.to_list (Unix.environment ())) in
  Array.of_list (base @ [ "OMN_SHARD_KEY=" ^ key ])

(* Re-execute the running binary as [<exe> worker --id=N --connect ADDR
   [--trace-cache DIR]]: the CLI parses that with its [worker]
   subcommand, any other host binary with {!Worker.hatch}. A fork would
   be cheaper, but OCaml 5 forbids [Unix.fork] once a process runs more
   than one domain. *)
let spawn_worker ?key cfg ~connect ~id =
  let key = match key with Some _ as k -> k | None -> cfg.auth_key in
  let args =
    (* glued [--id=N]: a joiner's id is -1, which an option parser
       would otherwise read as an unknown flag *)
    [ Sys.executable_name; "worker"; Printf.sprintf "--id=%d" id; "--connect";
      Transport.to_string connect ]
    @ (match cfg.worker_trace_cache with
      | Some d -> [ "--trace-cache"; d ]
      | None -> [])
  in
  let argv = Array.of_list args in
  match key with
  | Some k ->
    (* the key travels in the environment, not argv: ps must not
       leak it *)
    Unix.create_process_env Sys.executable_name argv (env_with_key k) Unix.stdin Unix.stdout
      Unix.stderr
  | None -> Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr

type executor = Omn_temporal.Node.t list -> (Delay_cdf.partial, Delay_cdf.failure) result list

let clock = Unix.gettimeofday

(* Numbers this process's fleet sessions: two open at once (a nested
   [with_fleet]) must not share a socket path, or the inner one would
   unlink the outer's listener. *)
let sessions = Atomic.make 0

let with_fleet cfg (plan : Delay_cdf.plan) f =
  let n_initial = cfg.workers + List.length cfg.peers in
  if cfg.workers < 0 then Err.error Usage "shard: workers < 0"
  else if n_initial < 1 then Err.error Usage "shard: no workers (spawned or peers)"
  else if not (cfg.heartbeat_timeout > 0. && cfg.heartbeat_interval > 0.) then
    (* NaN fails every [> 0.]; a NaN timeout would never fire *)
    Err.error Usage "shard: heartbeat timeout and interval must be > 0"
  else if cfg.max_inflight < 1 then Err.error Usage "shard: max_inflight < 1"
  else if
    cfg.auth_key = None
    && List.exists (fun e -> e.Faultgen.shard_fault = Faultgen.Auth_bad) cfg.chaos
  then
    (* the wrong key is derived from the fleet's own *)
    Err.error Usage "shard: auth-bad needs a key (--auth-key or OMN_SHARD_KEY)"
  else begin
    (* the job restates the plan for [Delay_cdf.source_partial] *)
    let max_hops = plan.max_hops and grid = Some plan.grid and windows = Some plan.windows in
    let n_nodes = Array.length plan.is_dest in
    let dests =
      if Array.for_all Fun.id plan.is_dest then None
      else Some (List.filter (Array.get plan.is_dest) (List.init n_nodes Fun.id))
    in
    let trace_text = Trace_io.to_string plan.trace in
    let trace_digest = Sha256.string trace_text in
    let listen_addr =
      match cfg.listen with
      | Some a -> a
      | None ->
        Transport.Unix_path
          (Filename.concat (Filename.get_temp_dir_name ())
             (Printf.sprintf "omn-shard-%d-%d.sock" (Unix.getpid ())
                (Atomic.fetch_and_add sessions 1)))
    in
    (match listen_addr with
    | Transport.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ());
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    match Transport.listen ~backlog:(n_initial + 8) listen_addr with
    | exception Unix.Unix_error (e, _, _) ->
      Sys.set_signal Sys.sigpipe old_sigpipe;
      Err.errorf Io "shard: cannot bind %s: %s"
        (Transport.to_string listen_addr)
        (Unix.error_message e)
    | listen_fd -> (
      let stat_bound =
        match cfg.stat_addr with
        | None -> Ok None
        | Some addr -> (
          match Transport.listen ~backlog:8 addr with
          | fd ->
            (match cfg.on_stat_bound with
            | Some f -> f (Transport.bound_addr fd addr)
            | None -> ());
            Ok (Some fd)
          | exception Unix.Unix_error (e, _, _) ->
            Err.errorf Io "shard: cannot bind stat addr %s: %s"
              (Transport.to_string addr) (Unix.error_message e))
      in
      match stat_bound with
      | Error e ->
        Sys.set_signal Sys.sigpipe old_sigpipe;
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (match listen_addr with
        | Transport.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | Transport.Tcp _ -> ());
        Error e
      | Ok stat_fd ->
      let connect_addr = Transport.bound_addr listen_fd listen_addr in
      let restore () =
        Sys.set_signal Sys.sigpipe old_sigpipe;
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (match stat_fd with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ());
        match listen_addr with
        | Transport.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | Transport.Tcp _ -> ()
      in
      let new_wstate ~kind ~initial id =
        {
          id;
          kind;
          initial;
          pid = 0;
          conn = None;
          ready = false;
          had_ready = false;
          shipped = false;
          last_seen = 0.;
          respawns = -1;
          next_spawn_at = 0.;
          gone = false;
          left = false;
          mangle_next = false;
          dup_next = false;
          slow_until = 0.;
          inflight = 0;
        }
      in
      let ws : (int, wstate) Hashtbl.t = Hashtbl.create 16 in
      for id = 0 to cfg.workers - 1 do
        Hashtbl.replace ws id (new_wstate ~kind:Spawned ~initial:true id)
      done;
      List.iteri
        (fun i addr ->
          let id = cfg.workers + i in
          Hashtbl.replace ws id (new_wstate ~kind:(Dialed addr) ~initial:true id))
        cfg.peers;
      let next_id = ref n_initial in
      let workers_sorted () =
        Hashtbl.fold (fun _ w acc -> w :: acc) ws []
        |> List.sort (fun a b -> compare a.id b.id)
      in
      let iter_workers f = List.iter f (workers_sorted ()) in
      (* The batch being served: slot [!base + i] computes
         [!slots.(i)]. Slot ids keep growing across batches, so a late
         duplicate of an earlier batch's result is recognised as one. *)
      let base = ref 0 and slots = ref [||] and slot_state = ref [||] in
      let settled = ref 0 and acked = ref 0 in
      let st_spawns = ref 0
      and st_misses = ref 0
      and st_corrupt = ref 0
      and st_reassigned = ref 0
      and st_rejoins = ref 0
      and st_dups = ref 0
      and st_auth_rejects = ref 0
      and st_partitions = ref 0
      and st_ship_bytes = ref 0
      and st_cache_hits = ref 0
      and st_joins = ref 0
      and st_leaves = ref 0 in
      let wtel : (int, tel_acc) Hashtbl.t = Hashtbl.create 8 in
      let tel_acc_for id =
        match Hashtbl.find_opt wtel id with
        | Some ta -> ta
        | None ->
          let ta =
            {
              ta_metrics = Metrics.empty_snapshot;
              ta_segments = [];
              ta_dropped = [];
              ta_offset = 0.;
              ta_rtt = infinity;
              ta_last_tcoord = neg_infinity;
            }
          in
          Hashtbl.replace wtel id ta;
          ta
      in
      let fleet_of () =
        Hashtbl.fold (fun id ta acc -> (id, ta) :: acc) wtel []
        |> List.sort (fun a b -> compare (fst a) (fst b))
        |> List.map (fun (id, ta) ->
               {
                 tw_worker = id;
                 tw_metrics = ta.ta_metrics;
                 tw_events = List.concat (List.rev ta.ta_segments);
                 tw_dropped = ta.ta_dropped;
                 tw_offset = (if ta.ta_rtt = infinity then 0. else ta.ta_offset);
                 tw_rtt = (if ta.ta_rtt = infinity then 0. else ta.ta_rtt);
               })
      in
      let stats_of () =
        {
          spawns = !st_spawns;
          heartbeat_misses = !st_misses;
          frame_corrupts = !st_corrupt;
          reassigned = !st_reassigned;
          rejoins = !st_rejoins;
          duplicates = !st_dups;
          auth_rejects = !st_auth_rejects;
          partitions = !st_partitions;
          trace_ship_bytes = !st_ship_bytes;
          trace_cache_hits = !st_cache_hits;
          joins = !st_joins;
          leaves = !st_leaves;
          fleet = fleet_of ();
        }
      in
      let chaos = ref cfg.chaos in
      let bad_pids = ref [] in
      let fatal : Err.t option ref = ref None in
      let dispatched = ref false in
      let auth_state = Auth.state () in
      let job_for w =
        Proto.Job
          {
            trace_digest;
            worker = w;
            max_hops;
            dests;
            grid;
            windows;
            domains = cfg.worker_domains;
            telemetry = cfg.telemetry;
          }
      in
      let close_conn w =
        match w.conn with
        | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          w.conn <- None
        | None -> ()
      in
      let rec kill_and_reap w =
        close_conn w;
        w.ready <- false;
        if w.pid > 0 then begin
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (* a signal landing mid-waitpid must not abandon the reap
             and leak a zombie *)
          (try Retry_io.eintr (fun () -> ignore (Unix.waitpid [] w.pid))
           with Unix.Unix_error _ -> ());
          w.pid <- 0
        end
      and send_to w msg =
        match w.conn with
        | None -> false
        | Some fd -> (
          try
            Frame.write fd (Proto.encode_to_worker msg);
            true
          with Unix.Unix_error _ ->
            handle_death w;
            false)
      (* The one sender of [Compute]: slot [i] goes to the ready worker
         with the fewest sources in flight, below the window, ties to
         the lowest id. Answers that worker's id, or -1 when none has
         room and the slot stays Pending. A send that fails kills its
         worker, and the next one is tried. *)
      and dispatch i =
        let has_room w =
          w.ready && w.conn <> None && (not w.left) && w.inflight < cfg.max_inflight
        in
        let fewer w = function
          | None -> true
          | Some b -> w.inflight < b.inflight || (w.inflight = b.inflight && w.id < b.id)
        in
        let pick _ w best = if has_room w && fewer w best then Some w else best in
        match Hashtbl.fold pick ws None with
        | None -> -1
        | Some w ->
          if send_to w (Proto.Compute { slot = !base + i; source = !slots.(i) }) then begin
            !slot_state.(i) <- Assigned w.id;
            w.inflight <- w.inflight + 1;
            w.id
          end
          else dispatch i
      (* this worker's unacknowledged sources go back to Pending, and
         each is dispatched again at once if some worker has room *)
      and reassign_assigned w =
        w.inflight <- 0;
        Array.iteri
          (fun i st ->
            match st with
            | Assigned owner when owner = w.id ->
              incr st_reassigned;
              Metrics.incr m_reassigned;
              !slot_state.(i) <- Pending;
              let to_worker = dispatch i in
              Timeline.record (Reassign { source = !slots.(i); from_worker = w.id; to_worker })
            | _ -> ())
          !slot_state
      and handle_death w =
        kill_and_reap w;
        if w.left then ()
        else if w.respawns >= max_respawns then w.gone <- true
        else
          w.next_spawn_at <-
            clock () +. (cfg.respawn_backoff *. (2. ** float_of_int (max 0 w.respawns)));
        reassign_assigned w
      in
      let handle_leave w =
        if not w.left then begin
          w.left <- true;
          incr st_leaves;
          Metrics.incr m_leaves;
          Timeline.record (Member_leave { worker = w.id });
          w.ready <- false;
          reassign_assigned w;
          ignore (send_to w Proto.Shutdown);
          kill_and_reap w
        end
      in
      (* drop the link, leave the process (if any) running: the worker
         must reconnect — or be heartbeat-escalated into a real death *)
      let partition w =
        incr st_partitions;
        Metrics.incr m_partitions;
        close_conn w;
        w.ready <- false;
        w.last_seen <- clock ();
        reassign_assigned w;
        match w.kind with
        | Dialed _ -> w.next_spawn_at <- clock ()
        | Spawned -> ()
      in
      let auth_reject reason =
        incr st_auth_rejects;
        Metrics.incr m_auth_rejects;
        Timeline.record (Auth_reject { reason })
      in
      let admit_join ~kind id =
        let w = new_wstate ~kind ~initial:false id in
        Hashtbl.replace ws id w;
        incr st_joins;
        Metrics.incr m_joins;
        Timeline.record (Member_join { worker = id });
        w
      in
      let dispatch_pending () =
        if not !dispatched then
          dispatched :=
            List.for_all
              (fun w -> (not w.initial) || w.gone || w.left || w.ready)
              (workers_sorted ())
            && List.exists (fun w -> w.ready) (workers_sorted ());
        (* in batch order, until no worker has room *)
        let rec go i =
          if i < Array.length !slot_state then
            match !slot_state.(i) with
            | Pending -> if dispatch i >= 0 then go (i + 1)
            | _ -> go (i + 1)
        in
        if !dispatched then go 0
      in
      let fire_chaos () =
        let rec go () =
          match !chaos with
          | e :: rest when e.Faultgen.after_results <= !acked ->
            chaos := rest;
            let active = List.filter (fun w -> not (w.gone || w.left)) (workers_sorted ()) in
            if active <> [] then begin
              let w = List.nth active (e.victim mod List.length active) in
              Timeline.record
                (Mark
                   {
                     name =
                       Printf.sprintf "chaos:%s:worker-%d"
                         (Faultgen.shard_fault_name e.shard_fault)
                         w.id;
                   });
              match e.shard_fault with
              | Faultgen.Worker_kill ->
                if w.pid > 0 then (
                  try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
                else partition w (* remote process: a kill is a dead link *)
              | Faultgen.Worker_hang ->
                if w.pid > 0 then (
                  try Unix.kill w.pid Sys.sigstop with Unix.Unix_error _ -> ())
                else partition w
              | Faultgen.Sock_corrupt -> w.mangle_next <- true
              | Faultgen.Net_partition -> partition w
              | Faultgen.Net_slow ->
                w.slow_until <-
                  clock ()
                  +. Float.min
                       (4. *. cfg.heartbeat_interval)
                       (cfg.heartbeat_timeout /. 4.)
              | Faultgen.Net_dup -> w.dup_next <- true
              | Faultgen.Auth_bad ->
                (* [with_fleet] refused the fault without a key *)
                let key = Option.get cfg.auth_key in
                bad_pids :=
                  spawn_worker ~key:(key ^ "-wrong") cfg ~connect:connect_addr ~id:(-1)
                  :: !bad_pids
              | Faultgen.Worker_join ->
                let id = !next_id in
                incr next_id;
                let j = admit_join ~kind:Spawned id in
                j.next_spawn_at <- clock ()
              | Faultgen.Worker_leave -> handle_leave w
            end;
            go ()
          | _ -> ()
        in
        go ()
      in
      (* At most once per slot: a result for a settled slot (a
         reassignment race, net-dup, or an earlier batch) is counted
         and dropped; a slot never issued means a confused peer. *)
      let settle w slot outcome =
        let i = slot - !base in
        if slot < 0 || i >= Array.length !slot_state then handle_death w
        else
          match if i < 0 then None else Some !slot_state.(i) with
          | None | Some (Acked _ | Raised _) ->
            incr st_dups;
            Metrics.incr m_duplicates
          | Some (Pending | Assigned _ as st) ->
            (match st with
            | Assigned owner ->
              let o = Hashtbl.find ws owner in
              o.inflight <- max 0 (o.inflight - 1)
            | _ -> ());
            !slot_state.(i) <- outcome;
            incr settled;
            (match outcome with
            | Acked _ ->
              incr acked;
              fire_chaos ()
            | _ -> ())
      in
      let handle_msg w msg =
        w.last_seen <- clock ();
        match (msg : Proto.from_worker) with
        | Hello _ ->
          (* session start on a dialed connection (accepted ones
             consume Hello in accept_conn) *)
          w.ready <- false;
          w.shipped <- false;
          ignore (send_to w (job_for w.id))
        | Pong -> ()
        | Need_trace { digest } ->
          if String.equal digest trace_digest then begin
            w.shipped <- true;
            let bytes = String.length trace_text in
            st_ship_bytes := !st_ship_bytes + bytes;
            Metrics.add m_ship_bytes bytes;
            Timeline.record (Trace_ship { worker = w.id; bytes });
            ignore (send_to w (Proto.Trace_data { digest; text = trace_text }))
          end
          else handle_death w (* asking for some other trace: confused peer *)
        | Stats_push { worker = _; t_coord; t_worker; metrics; events; dropped } ->
          (* NTP-style offset: the worker stamped t_worker between our
             send (t_coord, echoed back) and our receive; assuming a
             symmetric link, worker_clock - coord_clock ~ t_worker -
             midpoint. The lowest-RTT sample bounds the error
             tightest, so it keeps the offset. Wall clocks on both
             ends. *)
          let t_recv = Unix.gettimeofday () in
          let rtt = Float.max 0. (t_recv -. t_coord) in
          let ta = tel_acc_for w.id in
          ta.ta_metrics <- metrics;
          if events <> [] then ta.ta_segments <- events :: ta.ta_segments;
          ta.ta_dropped <- dropped;
          ta.ta_last_tcoord <- Float.max ta.ta_last_tcoord t_coord;
          if rtt <= ta.ta_rtt then begin
            ta.ta_rtt <- rtt;
            ta.ta_offset <- t_worker -. ((t_coord +. t_recv) /. 2.)
          end
        | Ready _ ->
          let rejoin = (not w.ready) && w.had_ready in
          if not w.shipped then begin
            incr st_cache_hits;
            Metrics.incr m_cache_hits;
            Timeline.record (Trace_cache_hit { worker = w.id })
          end;
          w.ready <- true;
          w.had_ready <- true;
          if rejoin then begin
            incr st_rejoins;
            Metrics.incr m_rejoins;
            Timeline.record (Worker_rejoin { worker = w.id })
          end;
          dispatch_pending ()
        | Result { slot; source = _; partial } -> settle w slot (Acked partial)
        | Failed { slot; source; reason } -> settle w slot (Raised { Delay_cdf.source; reason })
      in
      let handle_fd w =
        match w.conn with
        | None -> ()
        | Some fd -> (
          let mangle = w.mangle_next in
          w.mangle_next <- false;
          match Frame.read ~mangle fd with
          | Error `Eof -> handle_death w
          | Error `Corrupt ->
            incr st_corrupt;
            Metrics.incr m_corrupt;
            Timeline.record (Frame_corrupt { worker = w.id });
            handle_death w
          | Error `Timeout -> handle_death w (* stalled mid-frame *)
          | Ok s -> (
            match Proto.decode_from_worker s with
            | Error _ -> handle_death w
            | Ok msg -> (
              match msg with
              | Proto.Result _ when w.dup_next ->
                (* net-dup: a retransmitted result frame — the second
                   delivery must die in the duplicate check *)
                w.dup_next <- false;
                Metrics.incr m_dup_frames;
                handle_msg w msg;
                handle_msg w msg
              | _ -> handle_msg w msg)))
      in
      let register_session w fd =
        (match w.conn with
        | Some old -> ( try Unix.close old with Unix.Unix_error _ -> ())
        | None -> ());
        w.conn <- Some fd;
        w.ready <- false;
        w.shipped <- false;
        w.last_seen <- clock ()
      in
      let accept_conn () =
        match Retry_io.eintr (fun () -> Unix.accept listen_fd) with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> (
          (try Transport.set_deadline fd cfg.heartbeat_timeout
           with Unix.Unix_error _ -> ());
          let close () = try Unix.close fd with Unix.Unix_error _ -> () in
          let hello () =
            match Frame.read fd with
            | Ok s -> (
              match Proto.decode_from_worker s with
              | Ok (Hello { worker = -1 }) ->
                (* authenticated joiner: assign the next id and admit
                   it to the fleet *)
                let id = !next_id in
                incr next_id;
                let w = admit_join ~kind:Spawned id in
                register_session w fd;
                ignore (send_to w (job_for id))
              | Ok (Hello { worker }) -> (
                match Hashtbl.find_opt ws worker with
                | Some w when (not w.gone) && not w.left ->
                  register_session w fd;
                  ignore (send_to w (job_for worker))
                | _ -> close ())
              | Ok _ | Error _ -> close ())
            | Error _ -> close ()
          in
          match Auth.server ~state:auth_state ?key:cfg.auth_key fd with
          | Ok () -> hello ()
          | Error e ->
            auth_reject e.Err.msg;
            close ())
      in
      let backoff_for w =
        cfg.respawn_backoff *. (2. ** float_of_int (max 0 w.respawns))
      in
      let respawn_due () =
        iter_workers (fun w ->
            if (not w.gone) && not w.left then
              match w.kind with
              | Spawned ->
                if w.pid = 0 && w.conn = None && clock () >= w.next_spawn_at then begin
                  w.respawns <- w.respawns + 1;
                  w.pid <- spawn_worker cfg ~connect:connect_addr ~id:w.id;
                  w.ready <- false;
                  w.last_seen <- clock ();
                  incr st_spawns;
                  Metrics.incr m_spawns;
                  Timeline.record (Worker_spawn { worker = w.id; pid = w.pid })
                end
              | Dialed addr ->
                if w.conn = None && clock () >= w.next_spawn_at then begin
                  w.respawns <- w.respawns + 1;
                  match Transport.dial ~attempts:1 ~connect_timeout:cfg.heartbeat_timeout addr with
                  | Ok fd -> (
                    (try Transport.set_deadline fd cfg.heartbeat_timeout
                     with Unix.Unix_error _ -> ());
                    match Auth.client ?key:cfg.auth_key fd with
                    | Ok () ->
                      register_session w fd;
                      incr st_spawns;
                      Metrics.incr m_spawns;
                      Timeline.record (Worker_spawn { worker = w.id; pid = 0 })
                    | Error e ->
                      (try Unix.close fd with Unix.Unix_error _ -> ());
                      if auth_fatal e then fatal := Some e
                      else if w.respawns >= max_respawns then w.gone <- true
                      else w.next_spawn_at <- clock () +. backoff_for w)
                  | Error _ ->
                    if w.respawns >= max_respawns then w.gone <- true
                    else w.next_spawn_at <- clock () +. backoff_for w
                end)
      in
      let check_timeouts () =
        iter_workers (fun w ->
            if
              (w.pid > 0 || w.conn <> None)
              && (not w.left)
              && clock () -. w.last_seen > cfg.heartbeat_timeout
            then begin
              incr st_misses;
              Metrics.incr m_misses;
              Timeline.record (Heartbeat_miss { worker = w.id });
              handle_death w
            end)
      in
      let last_ping = ref 0. in
      let heartbeats () =
        let now = clock () in
        if now -. !last_ping >= cfg.heartbeat_interval then begin
          last_ping := now;
          iter_workers (fun w -> if w.ready then ignore (send_to w Proto.Ping))
        end
      in
      let last_pull = ref 0. in
      let stats_pulls () =
        if cfg.telemetry then begin
          let now = clock () in
          if now -. !last_pull >= cfg.stats_interval then begin
            last_pull := now;
            iter_workers (fun w ->
                if w.ready && w.conn <> None && not w.left then
                  ignore
                    (send_to w (Proto.Stats_pull { t_coord = Unix.gettimeofday () })))
          end
        end
      in
      (* One last pull-and-drain when the session ends, so the final
         artifacts see every worker's complete registry and timeline
         tail. Bounded by the heartbeat timeout: a worker dying here
         costs its tail, never the run. *)
      let final_stats_pull () =
        if cfg.telemetry then begin
          let t_final = Unix.gettimeofday () in
          let expected =
            workers_sorted ()
            |> List.filter_map (fun w ->
                   if w.conn <> None && w.had_ready && not w.left then
                     if send_to w (Proto.Stats_pull { t_coord = t_final }) then Some w.id
                     else None
                   else None)
          in
          let outstanding () =
            List.filter
              (fun id ->
                match Hashtbl.find_opt ws id with
                | Some w when w.conn <> None -> (
                  match Hashtbl.find_opt wtel id with
                  | Some ta -> ta.ta_last_tcoord < t_final
                  | None -> true)
                | _ -> false)
              expected
          in
          let deadline = clock () +. cfg.heartbeat_timeout in
          let rec drain () =
            match outstanding () with
            | [] -> ()
            | ids when clock () < deadline ->
              let conns =
                List.filter_map
                  (fun id -> Option.bind (Hashtbl.find_opt ws id) (fun w -> w.conn))
                  ids
              in
              (match Retry_io.eintr (fun () -> Unix.select conns [] [] 0.05) with
              | [], _, _ -> ()
              | readable, _, _ ->
                iter_workers (fun w ->
                    match w.conn with
                    | Some fd when List.memq fd readable -> handle_fd w
                    | _ -> ()));
              drain ()
            | _ -> ()
          in
          if expected <> [] then drain ()
        end
      in
      (* Live Prometheus exposition: the coordinator's own registry
         (worker -1) merged with each worker's latest pushed snapshot.
         One short-deadline request per select round; a stuck client
         can delay, never wedge, the run. *)
      let live_exposition () =
        let snaps =
          Metrics.tag_worker ~worker:(-1) (Metrics.snapshot ())
          :: (Hashtbl.fold (fun id ta acc -> (id, ta) :: acc) wtel []
             |> List.sort (fun a b -> compare (fst a) (fst b))
             |> List.map (fun (id, ta) -> Metrics.tag_worker ~worker:id ta.ta_metrics))
        in
        Metrics.to_prometheus (Metrics.merge_all snaps)
      in
      let serve_stat lfd =
        match Retry_io.eintr (fun () -> Unix.accept lfd) with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          (try Transport.set_deadline fd 1. with Unix.Unix_error _ -> ());
          let buf = Bytes.create 1024 in
          let rec drain_req acc =
            if contains acc "\r\n\r\n" || String.length acc > 8192 then ()
            else
              match Unix.read fd buf 0 1024 with
              | 0 -> ()
              | n -> drain_req (acc ^ Bytes.sub_string buf 0 n)
              | exception Unix.Unix_error _ -> ()
          in
          drain_req "";
          let body = live_exposition () in
          let resp =
            Printf.sprintf
              "HTTP/1.1 200 OK\r\n\
               Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
               Content-Length: %d\r\n\
               Connection: close\r\n\
               \r\n\
               %s"
              (String.length body) body
          in
          let rec wr off len =
            if len > 0 then
              match Unix.write_substring fd resp off len with
              | 0 -> ()
              | n -> wr (off + n) (len - n)
              | exception Unix.Unix_error _ -> ()
          in
          wr 0 (String.length resp);
          (try Unix.close fd with Unix.Unix_error _ -> ())
      in
      let shutdown_all () =
        iter_workers (fun w ->
            ignore (match w.conn with Some _ -> send_to w Proto.Shutdown | None -> false));
        iter_workers kill_and_reap;
        List.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try Retry_io.eintr (fun () -> ignore (Unix.waitpid [] pid))
            with Unix.Unix_error _ -> ())
          !bad_pids;
        restore ()
      in
      let drain_bad_joiners () =
        (* a chaos-injected wrong-key joiner may still be dialing when
           the last result lands; its typed rejection is part of the
           run's assertion surface, so keep servicing the listener
           until each one has exited (the client exits on the
           auth-err frame) or the heartbeat timeout passes *)
        if !bad_pids <> [] then begin
          let deadline = clock () +. cfg.heartbeat_timeout in
          let alive pid =
            match Retry_io.eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false
          in
          let rec go () =
            bad_pids := List.filter alive !bad_pids;
            if !bad_pids <> [] && clock () < deadline then begin
              (match
                 Retry_io.eintr (fun () -> Unix.select [ listen_fd ] [] [] 0.05)
               with
              | [], _, _ -> ()
              | _ -> accept_conn ());
              go ()
            end
          in
          go ()
        end
      in
      (* One batch, served to completion: every slot ends Acked or
         Raised, or the fleet is lost and the batch raises. Time spent
         outside [serve] (the driver's checkpoints, reporter, folds)
         is not worker silence, so the heartbeat clock restarts. *)
      let serve batch =
        base := !base + Array.length !slot_state;
        slots := Array.of_list batch;
        slot_state := Array.make (Array.length !slots) Pending;
        settled := 0;
        let now = clock () in
        iter_workers (fun w -> if w.pid > 0 || w.conn <> None then w.last_seen <- now);
        dispatch_pending ();
        let n = Array.length !slots in
        let rec loop () =
          if !settled < n then begin
            Option.iter (fun e -> raise (Err.Error e)) !fatal;
            if List.for_all (fun w -> w.gone || w.left) (workers_sorted ()) then
              raise
                (Err.Error
                   (Err.errf Compute
                      "shard: all %d workers lost (respawn budget exhausted) with %d/%d \
                       sources unaccounted"
                      (Hashtbl.length ws) (n - !settled) n));
            respawn_due ();
            (* net-slow: a slowed worker's frames wait in its socket
               until its window closes, strictly below the heartbeat
               timeout (a slow link is never declared dead); every
               other link is served meanwhile *)
            let now = clock () in
            let conns =
              workers_sorted ()
              |> List.filter_map (fun w -> if now < w.slow_until then None else w.conn)
            in
            let stat_fds = match stat_fd with Some fd -> [ fd ] | None -> [] in
            let readable =
              (* EINTR must retry, not skip the poll: dropping a
                 round under a signal storm starves last_seen and
                 false-positives healthy workers *)
              match
                Retry_io.eintr (fun () ->
                    Unix.select ((listen_fd :: stat_fds) @ conns) [] []
                      (cfg.heartbeat_interval /. 2.))
              with
              | r, _, _ -> r
            in
            if List.memq listen_fd readable then accept_conn ();
            (match stat_fd with
            | Some fd when List.memq fd readable -> serve_stat fd
            | _ -> ());
            iter_workers (fun w ->
                match w.conn with
                | Some fd when List.memq fd readable -> handle_fd w
                | _ -> ());
            heartbeats ();
            check_timeouts ();
            stats_pulls ();
            dispatch_pending ();
            loop ()
          end
        in
        loop ();
        Array.to_list !slot_state
        |> List.map (function
             | Acked s -> (
               match Delay_cdf.partial_of_string s with
               | Ok p -> Ok p
               | Error msg -> raise (Err.Error (Err.v Compute ("shard: " ^ msg))))
             | Raised f -> Error f
             | Pending | Assigned _ -> assert false)
      in
      match f serve with
      | v ->
        drain_bad_joiners ();
        final_stats_pull ();
        shutdown_all ();
        Ok (v, stats_of ())
      | exception e ->
        (try final_stats_pull () with _ -> ());
        shutdown_all ();
        raise e)
  end
