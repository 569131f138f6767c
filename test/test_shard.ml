(* The multi-process shard layer: least-loaded dispatch, wire framing,
   the protocol round-trip, the per-source partial merge, and the
   coordinator's end-to-end guarantees — a 3-worker run is
   bit-identical to the single-process driver, and stays bit-identical
   (with every source accounted for exactly once) under any single
   worker-kill/restart schedule. *)

module Frame = Omn_shard.Frame
module Proto = Omn_shard.Proto
module Coord = Omn_shard.Coord
module Transport = Omn_shard.Transport
module Auth = Omn_shard.Auth
module Store = Omn_shard.Store
module Err = Omn_robust.Err
module Faultgen = Omn_robust.Faultgen
module Delay_cdf = Omn_core.Delay_cdf
module Trace_io = Omn_temporal.Trace_io
module Rng = Omn_stats.Rng

let curves_equal (a : Delay_cdf.curves) (b : Delay_cdf.curves) =
  a.grid = b.grid && a.hop_success = b.hop_success && a.hop_success_inf = b.hop_success_inf
  && a.flood_success = b.flood_success && a.flood_success_inf = b.flood_success_inf
  && a.max_rounds_used = b.max_rounds_used

(* --- Frame --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let payload = "the quick brown fox \x00\xff jumps" in
  Frame.write a payload;
  Frame.write a "";
  (match Frame.read b with
  | Ok s -> Alcotest.(check string) "payload intact" payload s
  | Error _ -> Alcotest.fail "clean frame rejected");
  match Frame.read b with
  | Ok s -> Alcotest.(check string) "empty payload ok" "" s
  | Error _ -> Alcotest.fail "empty frame rejected"

let frame_corrupt_and_eof () =
  with_socketpair @@ fun a b ->
  Frame.write a "payload-to-mangle";
  (match Frame.read ~mangle:true b with
  | Error `Corrupt -> ()
  | Ok _ -> Alcotest.fail "mangled frame passed the CRC"
  | Error _ -> Alcotest.fail "mangled frame misclassified");
  Unix.close a;
  match Frame.read b with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "closed peer must read as Eof"

(* --- fuzz: the decode path must survive arbitrary wire damage --- *)

(* A frame's exact wire bytes, captured through a socketpair. *)
let raw_frame payload =
  with_socketpair @@ fun a b ->
  Frame.write a payload;
  Unix.close a;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read b chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Buffer.contents buf

(* Feed raw bytes to [Frame.read]. The writer closes after the bytes,
   so a decoder that wants more data sees Eof instead of hanging. *)
let feed raw =
  with_socketpair @@ fun a b ->
  let bytes = Bytes.of_string raw in
  let rec send off =
    if off < Bytes.length bytes then
      send (off + Unix.write a bytes off (Bytes.length bytes - off))
  in
  send 0;
  Unix.close a;
  Frame.read b

let prop_frame_decode_fuzz =
  QCheck2.Test.make ~count:120
    ~name:"mutated/truncated frames: typed error or clean payload, never an exception"
    QCheck2.Gen.(triple (string_size (int_range 0 120)) (int_range 0 1000) (int_range 0 1000))
    (fun (payload, pos, kind) ->
      let raw = raw_frame payload in
      let mutated =
        match kind mod 3 with
        | 0 ->
          (* flip one byte anywhere: length prefix, version, payload or CRC *)
          let b = Bytes.of_string raw in
          let i = pos mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5b));
          Bytes.to_string b
        | 1 -> String.sub raw 0 (pos mod (String.length raw + 1)) (* truncate *)
        | _ -> String.make (1 + (pos mod 7)) '\238' ^ raw (* garbage prefix *)
      in
      match feed mutated with
      | Ok s ->
        (* a survivable mutation (e.g. truncation at the full length) —
           the protocol decoder behind it must not raise either *)
        ignore (Proto.decode_to_worker s);
        ignore (Proto.decode_from_worker s);
        true
      | Error (`Eof | `Corrupt | `Timeout) -> true)

let prop_proto_decode_fuzz =
  QCheck2.Test.make ~count:200 ~name:"random payloads never crash the protocol decoder"
    QCheck2.Gen.(string_size (int_range 0 80))
    (fun s ->
      (match Proto.decode_to_worker s with Ok _ | Error _ -> ());
      (match Proto.decode_from_worker s with Ok _ | Error _ -> ());
      true)

(* --- Proto --- *)

let proto_roundtrip () =
  let job =
    {
      Proto.trace_digest = String.make 64 'a'; worker = 1; max_hops = 4;
      dests = Some [ 1; 2 ]; grid = Some [| 1.; 2. |]; windows = Some [ (0., 10.) ];
      domains = 2; telemetry = true;
    }
  in
  List.iter
    (fun m ->
      match Proto.decode_to_worker (Proto.encode_to_worker m) with
      | Ok m' -> Alcotest.(check bool) "to_worker round-trips" true (m = m')
      | Error e -> Alcotest.failf "to_worker decode failed: %s" e)
    [
      Proto.Job job; Proto.Compute { slot = 3; source = 7 }; Proto.Ping; Proto.Shutdown;
      Proto.Trace_data { digest = String.make 64 'b'; text = "0 1 0 1\n" };
      Proto.Stats_pull { t_coord = 1234.5 };
    ];
  List.iter
    (fun m ->
      match Proto.decode_from_worker (Proto.encode_from_worker m) with
      | Ok m' -> Alcotest.(check bool) "from_worker round-trips" true (m = m')
      | Error e -> Alcotest.failf "from_worker decode failed: %s" e)
    [
      Proto.Hello { worker = 1 }; Proto.Hello { worker = -1 };
      Proto.Ready { worker = 1 };
      Proto.Result { slot = 0; source = 5; partial = "bytes" };
      Proto.Failed { slot = 1; source = 6; reason = "poison" }; Proto.Pong;
      Proto.Need_trace { digest = String.make 64 'c' };
      Proto.Stats_push
        {
          worker = 1;
          t_coord = 1234.5;
          t_worker = 1234.25;
          metrics = Omn_obs.Metrics.empty_snapshot;
          events =
            [ (0, { Omn_obs.Timeline.ts = 2.5; ev = Shard_compute { source = 3; start = 2. } }) ];
          dropped = [ (0, 7) ];
        };
    ];
  match Proto.decode_to_worker "not a marshal payload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"

(* --- Transport --- *)

let transport_parse () =
  let ok s =
    match Transport.parse s with
    | Ok a -> a
    | Error e -> Alcotest.failf "%S rejected: %s" s (Err.to_string e)
  in
  (match ok "/tmp/omn.sock" with
  | Transport.Unix_path p -> Alcotest.(check string) "unix path" "/tmp/omn.sock" p
  | Transport.Tcp _ -> Alcotest.fail "path parsed as tcp");
  (match ok "127.0.0.1:9000" with
  | Transport.Tcp (h, p) ->
    Alcotest.(check string) "host" "127.0.0.1" h;
    Alcotest.(check int) "port" 9000 p
  | Transport.Unix_path _ -> Alcotest.fail "host:port parsed as path");
  List.iter
    (fun a ->
      Alcotest.(check bool) "to_string/parse round-trip" true
        (Transport.parse (Transport.to_string a) = Ok a))
    [
      Transport.Unix_path "/x/y.sock"; Transport.Tcp ("localhost", 1);
      Transport.Tcp ("10.0.0.2", 65535);
    ];
  List.iter
    (fun s ->
      match Transport.parse s with
      | Error { Err.code = Err.Usage; _ } -> ()
      | Error e -> Alcotest.failf "%S: wrong error %s" s (Err.to_string e)
      | Ok _ -> Alcotest.failf "%S accepted" s)
    [ ""; ":9"; "host:70000" ]

let transport_tcp_dial () =
  let spec = Transport.Tcp ("127.0.0.1", 0) in
  let lfd = Transport.listen spec in
  let closed = ref false in
  let close_listener () =
    if not !closed then begin
      closed := true;
      try Unix.close lfd with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:close_listener @@ fun () ->
  let addr = Transport.bound_addr lfd spec in
  let port =
    match addr with
    | Transport.Tcp (_, p) -> p
    | Transport.Unix_path _ -> Alcotest.fail "tcp listener bound a path"
  in
  Alcotest.(check bool) "kernel picked a real port" true (port > 0);
  (match Transport.dial ~attempts:2 ~backoff:0.01 addr with
  | Error e -> Alcotest.failf "dial failed: %s" (Err.to_string e)
  | Ok cfd ->
    let sfd, _ = Unix.accept lfd in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close cfd with Unix.Unix_error _ -> ());
        try Unix.close sfd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Frame.write cfd "over tcp";
    match Frame.read sfd with
    | Ok s -> Alcotest.(check string) "framed payload over TCP" "over tcp" s
    | Error _ -> Alcotest.fail "TCP frame rejected");
  close_listener ();
  (* the port is free again: the bounded retry budget must end in a
     typed E-IO, not an exception or a hang *)
  match Transport.dial ~attempts:2 ~backoff:0.01 (Transport.Tcp ("127.0.0.1", port)) with
  | Ok fd ->
    Unix.close fd;
    Alcotest.fail "dial to a closed listener succeeded"
  | Error { Err.code = Err.Io; _ } -> ()
  | Error e -> Alcotest.failf "wrong error code: %s" (Err.to_string e)

(* --- Auth --- *)

let auth_hmac () =
  let h = Auth.hmac ~key:"k" "msg" in
  Alcotest.(check int) "hex sha256 mac" 64 (String.length h);
  Alcotest.(check string) "deterministic" h (Auth.hmac ~key:"k" "msg");
  Alcotest.(check bool) "key matters" true (h <> Auth.hmac ~key:"k2" "msg");
  Alcotest.(check bool) "message matters" true (h <> Auth.hmac ~key:"k" "msg2")

(* Both handshake sides block on each other, so the server runs in its
   own domain over a socketpair. *)
let auth_handshake_ok () =
  with_socketpair @@ fun c s ->
  let st = Auth.state () in
  let srv = Domain.spawn (fun () -> Auth.server ~state:st ~key:"k1" s) in
  let cli = Auth.client ~key:"k1" c in
  let srv = Domain.join srv in
  (match cli with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client failed: %s" (Err.to_string e));
  match srv with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server failed: %s" (Err.to_string e)

let auth_wrong_key () =
  with_socketpair @@ fun c s ->
  let st = Auth.state () in
  let srv = Domain.spawn (fun () -> Auth.server ~state:st ~key:"right" s) in
  let cli = Auth.client ~key:"wrong" c in
  (match cli with
  | Ok () -> Alcotest.fail "wrong key accepted by client"
  | Error e -> Alcotest.(check bool) "client side is typed E-AUTH" true (e.Err.code = Err.Auth));
  (* the failed client drops the link; that unblocks the server side *)
  (try Unix.close c with Unix.Unix_error _ -> ());
  match Domain.join srv with
  | Ok () -> Alcotest.fail "wrong key accepted by server"
  | Error _ -> ()

let auth_replay_and_version () =
  let st = Auth.state () in
  let a1 =
    Printf.sprintf "omn-auth1 %d %s %s" Auth.protocol_version Auth.default_build
      (String.make 32 'e')
  in
  (* first use of the nonce: the server accepts A1 and answers A2 *)
  with_socketpair (fun c s ->
      let srv = Domain.spawn (fun () -> Auth.server ~state:st ~key:"k" s) in
      Frame.write c a1;
      (match Frame.read c with
      | Ok reply ->
        Alcotest.(check bool) "A2 answered for a fresh nonce" true
          (String.length reply >= 9 && String.sub reply 0 9 = "omn-auth2")
      | Error _ -> Alcotest.fail "no A2 reply");
      (* we never send A3; closing makes the server fail out cleanly *)
      Unix.close c;
      ignore (Domain.join srv));
  (* replaying the same client nonce must be a typed E-AUTH rejection *)
  with_socketpair (fun c s ->
      let srv = Domain.spawn (fun () -> Auth.server ~state:st ~key:"k" s) in
      Frame.write c a1;
      let reply = Frame.read c in
      (match Domain.join srv with
      | Ok () -> Alcotest.fail "replayed nonce accepted"
      | Error e -> Alcotest.(check bool) "replay is E-AUTH" true (e.Err.code = Err.Auth));
      match reply with
      | Ok r ->
        Alcotest.(check bool) "rejection frame shipped before closing" true
          (String.length r >= 12 && String.sub r 0 12 = "omn-auth-err")
      | Error _ -> Alcotest.fail "no rejection frame");
  (* a different protocol version is E-PROTO, not E-AUTH *)
  with_socketpair (fun c s ->
      let srv = Domain.spawn (fun () -> Auth.server ~state:(Auth.state ()) ~key:"k" s) in
      Frame.write c
        (Printf.sprintf "omn-auth1 %d %s %s" 99 Auth.default_build (String.make 32 'f'));
      (match Domain.join srv with
      | Ok () -> Alcotest.fail "version mismatch accepted"
      | Error e -> Alcotest.(check bool) "version mismatch is E-PROTO" true (e.Err.code = Err.Proto));
      ignore (Frame.read c))

(* --- Store --- *)

let store_roundtrip () =
  let dir = Filename.temp_file "omn_store" ".d" in
  Sys.remove dir;
  let text = "0 1 0 1\n0 2 5 9\n" in
  let digest = Omn_obs.Sha256.string text in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (Store.path ~dir ~digest) with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "miss on an empty store" true (Store.get ~dir ~digest = None);
  (match Store.put ~dir ~digest text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put failed: %s" (Err.to_string e));
  (match Store.get ~dir ~digest with
  | Some t -> Alcotest.(check string) "round-trip" text t
  | None -> Alcotest.fail "stored trace not found");
  (match Store.put ~dir ~digest:(String.make 64 '0') text with
  | Error { Err.code = Err.Checkpoint; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok () -> Alcotest.fail "digest mismatch accepted");
  (* flip one stored byte: corruption must read as a miss, never as a
     wrong trace *)
  let p = Store.path ~dir ~digest in
  let ic = open_in_bin p in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string contents in
  let i = Bytes.length b - 3 in
  Bytes.set b i (if Bytes.get b i = 'X' then 'Y' else 'X');
  let oc = open_out_bin p in
  output_bytes oc b;
  close_out oc;
  Alcotest.(check bool) "corrupt entry is a miss" true (Store.get ~dir ~digest = None)

(* --- partial merge --- *)

(* Fractional times: a fleet that merged in completion or slot order
   instead of ascending position would not match [compute] here. *)
let trace = Util.random_trace ~scale:0.37 (Rng.create 1731) ~n:10 ~m:60 ~horizon:120
let grid = [| 1.; 5.; 20.; 60.; 120. |]
let max_hops = 3
let reference = Delay_cdf.compute ~max_hops ~grid trace

let partial_merge_bit_identity () =
  let plan =
    match Delay_cdf.plan ~max_hops ~grid trace with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan rejected: %s" (Err.to_string e)
  in
  (* partials arriving in processing (stride) order, through the wire
     representation like a real worker's *)
  let parts =
    Array.to_list plan.order
    |> List.map (fun i ->
           let p = Delay_cdf.source_partial ~max_hops ~grid trace plan.sources.(i) in
           match Delay_cdf.partial_of_string (Delay_cdf.partial_to_string p) with
           | Ok p -> (i, p)
           | Error e -> Alcotest.failf "partial round-trip failed: %s" e)
  in
  Alcotest.(check bool) "merged partials bit-identical to compute" true
    (curves_equal (Delay_cdf.fold plan parts) reference);
  match Delay_cdf.partial_of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage partial decoded"

(* --- the coordinator, end to end --- *)

(* The coordinator re-executes this test binary, which doubles as its
   own worker ([Test_main] calls [Worker.hatch] first). *)
(* max_inflight = 2 keeps dispatch behind the chaos schedules below: a
   victim is always killed while it still has undispatched sources, so
   failover is required for completion rather than a timing accident. *)
let shard_cfg ~workers =
  {
    (Coord.default ~workers) with
    Coord.heartbeat_interval = 0.05;
    heartbeat_timeout = 2.;
    respawn_backoff = 0.01;
    max_inflight = 2;
  }

let plan_of t =
  match Delay_cdf.plan ~max_hops ~grid t with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan rejected: %s" (Err.to_string e)

(* The fleet as [Driver.run]'s executor: curves, progress and the
   session's stats, or the first error of either. *)
let fleet_run ?report ?checkpoint_every ?sampling cfg plan =
  match
    Coord.with_fleet cfg plan (fun partials_of ->
        Omn_core.Driver.run ~partials_of ?report ?checkpoint_every ?sampling plan)
  with
  | Error e | Ok (Error e, _) -> Error e
  | Ok (Ok o, st) -> Ok (o.curves, o.progress, st)

let run_ok ?(cfg = shard_cfg ~workers:3) () =
  match fleet_run cfg (plan_of trace) with
  | Ok v -> v
  | Error e -> Alcotest.failf "sharded run failed: %s" (Omn_robust.Err.to_string e)

(* Sources each worker computed, ascending worker id: its
   [Shard_compute] events (the config must turn telemetry on). *)
let computed_per_worker (st : Coord.stats) =
  List.map
    (fun (t : Coord.telemetry) ->
      List.length
        (List.filter
           (fun (_, (e : Omn_obs.Timeline.entry)) ->
             match e.ev with Omn_obs.Timeline.Shard_compute _ -> true | _ -> false)
           t.tw_events))
    st.Coord.fleet

(* One fault row: the run completes, every source is merged once and
   the curves are [compute]'s. The session's stats
   come back for the row's own counter. *)
let fault_row ?(t = trace) ?(reference = reference) label cfg =
  let plan = plan_of t in
  match fleet_run cfg plan with
  | Error e -> Alcotest.failf "%s: run failed: %s" label (Err.to_string e)
  | Ok (curves, p, st) ->
    Alcotest.(check bool) (label ^ ": complete") false p.Delay_cdf.partial;
    Alcotest.(check int) (label ^ ": every source merged once") (Array.length plan.sources)
      p.Delay_cdf.sources_done;
    Alcotest.(check bool) (label ^ ": compute's curves") true (curves_equal curves reference);
    st

let fault_at ?(after = 1) shard_fault =
  [ { Faultgen.after_results = after; victim = 0; shard_fault } ]

(* Least-loaded dispatch: with a window wider than the batch, the whole
   batch leaves at the barrier, each source to the worker with the
   fewest in flight, ties to the lowest id. So the 10 sources split
   evenly, the extras going to the lowest ids, and each worker's
   [Shard_compute] events count exactly its share. *)
let dispatch_splits_evenly () =
  List.iter
    (fun (workers, expected) ->
      let cfg = { (shard_cfg ~workers) with Coord.max_inflight = 32; telemetry = true } in
      let curves, _, st = run_ok ~cfg () in
      Alcotest.(check bool)
        (Printf.sprintf "%d workers: bit-identical to single-process" workers)
        true (curves_equal curves reference);
      Alcotest.(check (list int))
        (Printf.sprintf "%d workers: sources computed per worker" workers)
        expected (computed_per_worker st))
    [ (2, [ 5; 5 ]); (3, [ 4; 3; 3 ]); (4, [ 3; 3; 2; 2 ]) ]

(* Two sessions open at once in one process, over the same plan: the
   inner one runs inside the outer one before its first batch, so a
   shared socket path would be unlinked under the outer listener and
   its workers could never connect. Both must serve [compute]'s
   curves. *)
let coord_nested_sessions () =
  let plan = plan_of trace in
  match
    Coord.with_fleet (shard_cfg ~workers:2) plan (fun outer ->
        let inner = fleet_run (shard_cfg ~workers:2) plan in
        (inner, Omn_core.Driver.run ~partials_of:outer plan))
  with
  | Error e | Ok ((_, Error e), _) -> Alcotest.failf "outer session failed: %s" (Err.to_string e)
  | Ok ((inner, Ok outer), _) -> (
    Alcotest.(check bool) "outer session: bit-identical to single-process" true
      (curves_equal outer.curves reference);
    match inner with
    | Error e -> Alcotest.failf "inner session failed: %s" (Err.to_string e)
    | Ok (curves, _, _) ->
      Alcotest.(check bool) "inner session: bit-identical to single-process" true
        (curves_equal curves reference))

(* The same fleet twice over one fresh trace store: the cold run ships
   the trace and fills the store, the warm run's workers all read it
   back from the store and nothing is shipped. The cold run's workers
   share the store too, so one that asks after a sibling stored the
   trace reads it from there: how many of them hit is a race, that each
   got the trace exactly one way is not. *)
let coord_bit_identity () =
  let store = Filename.temp_file "omn_store" ".d" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter (fun f -> Sys.remove (Filename.concat store f)) (Sys.readdir store)
       with Sys_error _ -> ());
      try Unix.rmdir store with Unix.Unix_error _ -> ())
  @@ fun () ->
  let cfg = { (shard_cfg ~workers:3) with Coord.worker_trace_cache = Some store } in
  let run () =
    let curves, p, st = run_ok ~cfg () in
    Alcotest.(check bool) "complete" false p.Delay_cdf.partial;
    Alcotest.(check int) "every source accounted for" 10 p.Delay_cdf.sources_done;
    Alcotest.(check bool) "bit-identical to single-process" true (curves_equal curves reference);
    Alcotest.(check int) "exactly one spawn per worker" 3 st.Coord.spawns;
    st
  in
  let trace_bytes = String.length (Trace_io.to_string trace) in
  let cold = run () in
  Alcotest.(check bool) "cold store: trace bytes shipped" true (cold.Coord.trace_ship_bytes > 0);
  Alcotest.(check int) "cold store: every worker shipped the trace or hit the store"
    (3 * trace_bytes)
    (cold.Coord.trace_ship_bytes + (cold.Coord.trace_cache_hits * trace_bytes));
  let warm = run () in
  Alcotest.(check int) "warm store: no trace bytes shipped" 0 warm.Coord.trace_ship_bytes;
  Alcotest.(check int) "warm store: one cache hit per worker" 3 warm.Coord.trace_cache_hits

let big_trace = Util.random_trace ~scale:0.37 (Rng.create 97) ~n:40 ~m:200 ~horizon:200
let big_reference = Delay_cdf.compute ~max_hops ~grid big_trace

(* Kill ALL workers early in a 40-source run. With the 2-source
   in-flight window, at most 6 initial + 3 ack-freed dispatches can
   precede the last kill, so every victim strands undispatched work —
   completion then requires a respawn, a reassignment and a rejoin,
   deterministically (a lone kill can be absorbed by results already in
   the socket buffer, which is correct but unobservable). *)
let coord_kill_failover () =
  let chaos =
    List.map
      (fun v -> { Faultgen.after_results = 1 + v; victim = v; shard_fault = Faultgen.Worker_kill })
      [ 0; 1; 2 ]
  in
  let st =
    fault_row ~t:big_trace ~reference:big_reference "every worker killed"
      { (shard_cfg ~workers:3) with Coord.chaos }
  in
  Alcotest.(check bool) "respawn happened" true (st.Coord.spawns > 3);
  Alcotest.(check bool) "reassignment recorded" true (st.Coord.reassigned > 0);
  Alcotest.(check bool) "a respawned worker rejoined" true (st.Coord.rejoins > 0)

(* Deterministic membership schedules: a join mid-run, a leave mid-run,
   and a join followed by killing the joiner all keep the merge
   bit-identical to the single-process reference — placement is pure
   metadata, so churn may only move work, never lose or double it. *)
let coord_membership () =
  let m_trace = Util.random_trace ~scale:0.37 (Rng.create 311) ~n:24 ~m:140 ~horizon:160 in
  let m_reference = Delay_cdf.compute ~max_hops ~grid m_trace in
  let run label ~workers chaos =
    fault_row ~t:m_trace ~reference:m_reference label { (shard_cfg ~workers) with Coord.chaos }
  in
  let st =
    run "join mid-run" ~workers:2
      [ { Faultgen.after_results = 2; victim = 0; shard_fault = Faultgen.Worker_join } ]
  in
  Alcotest.(check int) "join mid-run: one member joined" 1 st.Coord.joins;
  let st =
    run "leave mid-run" ~workers:3
      [ { Faultgen.after_results = 2; victim = 1; shard_fault = Faultgen.Worker_leave } ]
  in
  Alcotest.(check int) "leave mid-run: one member left" 1 st.Coord.leaves;
  Alcotest.(check bool) "the leaver's sources were reassigned" true (st.Coord.reassigned > 0);
  (* victim 2 of the second event is the joiner (members 0,1 + joined 2) *)
  let st =
    run "join-then-kill" ~workers:2
      [
        { Faultgen.after_results = 1; victim = 0; shard_fault = Faultgen.Worker_join };
        { Faultgen.after_results = 4; victim = 2; shard_fault = Faultgen.Worker_kill };
      ]
  in
  Alcotest.(check int) "join-then-kill: joined before the kill" 1 st.Coord.joins;
  Alcotest.(check bool) "join-then-kill: the kill forced a respawn" true (st.Coord.spawns >= 3)

(* Heartbeat loss detection under a signal storm: SIGALRM at 200 Hz
   interrupts select/accept/waitpid with EINTR for the whole run. Every
   such call is routed through [Retry_io.eintr], so no live worker may
   be declared dead and no spurious respawn may fire. (The itimer is
   not inherited across fork, so only the coordinator is stormed.) *)
let coord_signal_storm () =
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm prev
  in
  Fun.protect ~finally:stop @@ fun () ->
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.005; it_value = 0.005 });
  let curves, p, st = run_ok () in
  Alcotest.(check bool) "complete under the signal storm" false p.Delay_cdf.partial;
  Alcotest.(check bool) "bit-identical under the signal storm" true
    (curves_equal curves reference);
  Alcotest.(check int) "EINTR never read as a dead worker" 0 st.Coord.heartbeat_misses;
  Alcotest.(check int) "no spurious respawns" 3 st.Coord.spawns

(* Property: any single worker-kill/restart schedule — whichever victim,
   whenever it fires — yields bit-identical curves with every source
   merged exactly once (at-most-once accounting absorbs reassignment
   races as counted duplicate drops, never double merges). *)
let prop_single_kill_schedules =
  QCheck2.Test.make ~count:6 ~name:"single worker-kill schedules: bit-identical, no double count"
    QCheck2.Gen.(pair (int_range 0 8) (int_range 0 2))
    (fun (after_results, victim) ->
      let chaos = [ { Faultgen.after_results; victim; shard_fault = Faultgen.Worker_kill } ] in
      match fleet_run { (shard_cfg ~workers:3) with Coord.chaos } (plan_of trace) with
      | Error e -> QCheck2.Test.fail_reportf "run failed: %s" (Omn_robust.Err.to_string e)
      | Ok (curves, p, st) ->
        if p.Delay_cdf.partial then QCheck2.Test.fail_report "spurious partial";
        if p.Delay_cdf.sources_done <> 10 then
          QCheck2.Test.fail_reportf "%d/10 sources merged (duplicates dropped: %d)"
            p.Delay_cdf.sources_done st.Coord.duplicates;
        curves_equal curves reference)

(* Time spent between batches (checkpoints, a reporter, folds) is not
   worker silence: a reporter that sleeps past the heartbeat timeout
   after every batch must not cost a heartbeat miss or a respawn. *)
let coord_idle_between_batches () =
  let cfg = { (shard_cfg ~workers:2) with Coord.heartbeat_timeout = 1. } in
  let batches = ref 0 in
  let report _ _ =
    incr batches;
    Unix.sleepf (1.5 *. cfg.Coord.heartbeat_timeout)
  in
  match fleet_run ~report ~checkpoint_every:5 cfg (plan_of trace) with
  | Error e -> Alcotest.failf "batched fleet run failed: %s" (Err.to_string e)
  | Ok (curves, p, st) ->
    Alcotest.(check int) "two batches, one fleet" 2 !batches;
    Alcotest.(check bool) "complete" false p.Delay_cdf.partial;
    Alcotest.(check bool) "bit-identical to single-process" true (curves_equal curves reference);
    Alcotest.(check int) "no heartbeat miss between batches" 0 st.Coord.heartbeat_misses;
    Alcotest.(check int) "one spawn per worker" 2 st.Coord.spawns

(* One worker in a second domain of this process, serving one session
   on a Unix socket, unkeyed. [f] gets a fleet config naming it as the
   only peer. SIGPIPE stays ignored until the worker domain has
   finished. *)
let with_domain_worker f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "omn-test-worker-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let worker =
    Domain.spawn (fun () ->
        Omn_shard.Worker.main ~worker:0 ~mode:(Omn_shard.Worker.Listen (Transport.Unix_path path))
          ~once:true ())
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Domain.join worker);
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigpipe prev)
  @@ fun () ->
  let rec wait n =
    if n > 0 && not (Sys.file_exists path) then begin
      Unix.sleepf 0.005;
      wait (n - 1)
    end
  in
  wait 2000;
  f { (shard_cfg ~workers:0) with Coord.peers = [ Transport.Unix_path path ] }

(* A source whose computation raises inside an exec'd worker, on a
   spawned two-worker fleet: asked for [n_nodes], one past the last
   node, the session's executor returns one [Error] naming that source
   with [Delay_cdf.source_partial]'s [Invalid_argument] as its reason
   (the driver fails a run with it: chaos "a failed source aborts the
   run"). The same session then serves [0; 1] with partials
   bit-identical to [Delay_cdf.source_partial]: the worker survived. *)
let coord_failed_path () =
  let n = Omn_temporal.Trace.n_nodes trace in
  let local v = Delay_cdf.partial_to_string (Delay_cdf.source_partial ~max_hops ~grid trace v) in
  match
    Coord.with_fleet (shard_cfg ~workers:2) (plan_of trace) (fun partials_of ->
        (match partials_of [ n ] with
        | [ Error (f : Delay_cdf.failure) ] ->
          Alcotest.(check int) "the failure names the source" n f.source;
          Alcotest.(check bool) ("an Invalid_argument reason: " ^ f.reason) true
            (String.starts_with ~prefix:"Invalid_argument(" f.reason)
        | _ -> Alcotest.fail "expected one Error for an out-of-range source");
        match partials_of [ 0; 1 ] with
        | [ Ok p0; Ok p1 ] ->
          Alcotest.(check string) "source 0 bit-identical" (local 0)
            (Delay_cdf.partial_to_string p0);
          Alcotest.(check string) "source 1 bit-identical" (local 1)
            (Delay_cdf.partial_to_string p1)
        | _ -> Alcotest.fail "the session did not serve [0; 1]")
  with
  | Ok ((), _) -> ()
  | Error e -> Alcotest.failf "fleet session failed: %s" (Err.to_string e)

(* The fleet's one resume path is the driver's checkpoint: a
   zero-budget fleet run stops after its first batch, and a fresh fleet
   resuming from the checkpoint is asked for exactly the unfinished
   sources, ends with [compute]'s curves and removes both checkpoint
   generations. *)
let coord_resume_from_checkpoint () =
  let plan = plan_of trace in
  let checkpoint = Filename.temp_file "omn_shard" ".ckpt" in
  let prev = Omn_robust.Checkpoint.prev_path checkpoint in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ checkpoint; prev ])
  @@ fun () ->
  let asked = ref [] in
  let session ?budget_seconds ~resume () =
    Coord.with_fleet (shard_cfg ~workers:3) plan (fun partials_of ->
        let counted sources =
          asked := !asked @ sources;
          partials_of sources
        in
        Omn_core.Driver.run ~partials_of:counted ~checkpoint ~resume ~checkpoint_every:3
          ?budget_seconds plan)
  in
  (match session ~budget_seconds:0. ~resume:false () with
  | Error e | Ok (Error e, _) -> Alcotest.failf "zero-budget fleet run failed: %s" (Err.to_string e)
  | Ok (Ok o, _) ->
    Alcotest.(check bool) "partial" true o.progress.Delay_cdf.partial;
    Alcotest.(check int) "one batch done" 3 o.progress.Delay_cdf.sources_done);
  let done_first = !asked in
  Alcotest.(check int) "the batch asked for 3 sources" 3 (List.length done_first);
  asked := [];
  match session ~resume:true () with
  | Error e | Ok (Error e, _) -> Alcotest.failf "resumed fleet run failed: %s" (Err.to_string e)
  | Ok (Ok o, _) ->
    let unfinished =
      List.filter (fun s -> not (List.mem s done_first)) (Array.to_list plan.sources)
    in
    Alcotest.(check (list int)) "asked for exactly the 7 unfinished sources, once each"
      (List.sort compare unfinished) (List.sort compare !asked);
    Alcotest.(check bool) "complete" false o.progress.Delay_cdf.partial;
    Alcotest.(check int) "every source accounted for" 10 o.progress.Delay_cdf.sources_done;
    Alcotest.(check bool) "bit-identical to compute" true (curves_equal o.curves reference);
    Alcotest.(check bool) "both checkpoint generations removed" false
      (Sys.file_exists checkpoint || Sys.file_exists prev)

(* --- fleet telemetry --- *)

(* A 2-worker telemetry run against a single-process reference: the
   merged cross-worker counter totals must equal the single-process
   run's (both count the same deterministic per-source work), every
   worker must have shipped timeline segments with [Shard_compute]
   spans and a stamped dropped counter, and a live scrape of the
   [--stat-addr] endpoint while the run is up must return a Prometheus
   text exposition. Results stay bit-identical with telemetry on. *)
let coord_fleet_telemetry () =
  let f_trace = Util.random_trace ~scale:0.37 (Rng.create 523) ~n:40 ~m:200 ~horizon:200 in
  let module M = Omn_obs.Metrics in
  let was = M.enabled () in
  M.reset ();
  M.set_enabled true;
  let f_reference = Delay_cdf.compute ~max_hops ~grid f_trace in
  let solo = M.snapshot () in
  M.reset ();
  M.set_enabled was;
  (* the scraper polls from another domain while the coordinator runs *)
  let stat_addr = Atomic.make None in
  let scraper =
    Domain.spawn (fun () ->
        let rec wait n =
          match Atomic.get stat_addr with
          | Some a -> Some a
          | None -> if n = 0 then None else (Unix.sleepf 0.005; wait (n - 1))
        in
        match wait 2000 with
        | None -> Error "stat endpoint never bound"
        | Some a ->
          let rec scrape tries =
            match Transport.dial ~attempts:1 a with
            | Error e ->
              if tries = 0 then Error (Err.to_string e)
              else (
                Unix.sleepf 0.01;
                scrape (tries - 1))
            | Ok fd ->
              Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              @@ fun () ->
              let req = "GET /metrics HTTP/1.1\r\nHost: omn\r\n\r\n" in
              ignore (Unix.write_substring fd req 0 (String.length req));
              let buf = Buffer.create 4096 in
              let chunk = Bytes.create 4096 in
              let rec drain () =
                match Unix.read fd chunk 0 4096 with
                | 0 -> ()
                | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
                | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
              in
              drain ();
              Ok (Buffer.contents buf)
          in
          scrape 400)
  in
  let cfg =
    {
      (shard_cfg ~workers:2) with
      Coord.telemetry = true;
      stats_interval = 0.05;
      stat_addr = Some (Transport.Tcp ("127.0.0.1", 0));
      on_stat_bound = Some (fun a -> Atomic.set stat_addr (Some a));
    }
  in
  let curves, p, st =
    match fleet_run cfg (plan_of f_trace) with
    | Ok v -> v
    | Error e ->
      Atomic.set stat_addr (Some (Transport.Tcp ("127.0.0.1", 1)));
      ignore (Domain.join scraper);
      Alcotest.failf "telemetry run failed: %s" (Err.to_string e)
  in
  let scraped = Domain.join scraper in
  Alcotest.(check bool) "complete" false p.Delay_cdf.partial;
  Alcotest.(check bool) "bit-identical with telemetry on" true (curves_equal curves f_reference);
  Alcotest.(check (list int)) "telemetry from both workers, ascending" [ 0; 1 ]
    (List.map (fun t -> t.Coord.tw_worker) st.Coord.fleet);
  let merged =
    M.merge_all
      (List.map (fun t -> M.tag_worker ~worker:t.Coord.tw_worker t.Coord.tw_metrics) st.Coord.fleet)
  in
  List.iter
    (fun name ->
      Alcotest.(check (option int))
        (Printf.sprintf "merged %s equals single-process" name)
        (M.counter_total solo name) (M.counter_total merged name))
    [ "frontier.points_kept"; "frontier.points_pruned" ];
  List.iter
    (fun t ->
      let computes =
        List.filter
          (fun (_, (e : Omn_obs.Timeline.entry)) ->
            match e.Omn_obs.Timeline.ev with Omn_obs.Timeline.Shard_compute _ -> true | _ -> false)
          t.Coord.tw_events
      in
      if computes = [] then
        Alcotest.failf "worker %d shipped no shard.compute events" t.Coord.tw_worker;
      Alcotest.(check bool) "rtt measured" true (t.Coord.tw_rtt >= 0.);
      match M.counter_total t.Coord.tw_metrics "timeline.dropped_events" with
      | Some _ -> ()
      | None -> Alcotest.failf "worker %d: dropped counter not stamped" t.Coord.tw_worker)
    st.Coord.fleet;
  let text = M.to_prometheus merged in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "merged exposition has both worker labels" true
    (contains text "{worker=\"0\"}" && contains text "{worker=\"1\"}");
  match scraped with
  | Error e -> Alcotest.failf "live scrape failed: %s" e
  | Ok body ->
    Alcotest.(check bool) "HTTP 200" true (contains body "HTTP/1.1 200");
    Alcotest.(check bool) "prometheus content type" true
      (contains body "text/plain; version=0.0.4");
    Alcotest.(check bool) "exposition body served live" true
      (contains body "# TYPE omn_shard_worker_spawns counter")

(* --- Faultgen shard fault names --- *)

(* The [--shard-fault] parser reads every kind by its name. *)
let shard_fault_names_roundtrip () =
  List.iter
    (fun n ->
      match Faultgen.shard_fault_of_name n with
      | Some f -> Alcotest.(check string) "name round-trips" n (Faultgen.shard_fault_name f)
      | None -> Alcotest.failf "%s not parsed" n)
    Faultgen.shard_fault_names

(* Without a key the hello still checks version and build, on the
   dialer's and the listener's side alike: a peer of another build is
   a typed E-PROTO at both ends, and a keyed dialer at a key-less
   listener a typed E-AUTH. The read deadline turns a side left
   waiting into an error, not a hang. Then an unkeyed pair of one
   build, the coordinator dialing a listening worker, serves the
   single-process curves bit for bit. *)
let unkeyed_hello () =
  let handshake ?cbuild ?sbuild ?ckey () =
    with_socketpair @@ fun c s ->
    Transport.set_deadline c 5.;
    Transport.set_deadline s 5.;
    let srv = Domain.spawn (fun () -> Auth.server ?build:sbuild ~state:(Auth.state ()) s) in
    let cli = Auth.client ?build:cbuild ?key:ckey c in
    (cli, Domain.join srv)
  in
  let expect code what = function
    | Error (e : Err.t) when e.code = code -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Err.to_string e)
    | Ok () -> Alcotest.failf "%s: accepted" what
  in
  List.iter
    (fun (label, (cli, srv)) ->
      expect Err.Proto (label ^ ", dialer") cli;
      expect Err.Proto (label ^ ", listener") srv)
    [
      ("listener of another build", handshake ~sbuild:"ocaml-other" ());
      ("dialer of another build", handshake ~cbuild:"ocaml-other" ());
    ];
  let cli, srv = handshake ~ckey:"k" () in
  expect Err.Auth "keyed dialer, key-less listener: dialer" cli;
  expect Err.Auth "keyed dialer, key-less listener: listener" srv;
  (match handshake () with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "unkeyed peers of one build refused");
  match with_domain_worker (fun cfg -> fleet_run cfg (plan_of trace)) with
  | Error e -> Alcotest.failf "unkeyed fleet run failed: %s" (Err.to_string e)
  | Ok (curves, _, _) ->
    Alcotest.(check bool) "unkeyed fleet: curves bit-identical to compute" true
      (curves_equal curves reference)

(* --- fleet faults --- *)

(* A lone worker, so only its replacement can finish the run: SIGSTOPped
   it is caught by the heartbeat, and a result frame with a flipped byte
   fails the CRC. A 0.5 s timeout keeps the hang row short. *)
let socket_faults () =
  let cfg chaos = { (shard_cfg ~workers:1) with Coord.heartbeat_timeout = 0.5; chaos } in
  let st = fault_row "hung worker" (cfg (fault_at Faultgen.Worker_hang)) in
  Alcotest.(check bool) "hung worker: heartbeat miss" true (st.Coord.heartbeat_misses >= 1);
  let st = fault_row "corrupt frame" (cfg (fault_at Faultgen.Sock_corrupt)) in
  Alcotest.(check bool) "corrupt frame: CRC rejected it" true (st.Coord.frame_corrupts >= 1)

(* Three workers over loopback TCP with a key, so every link runs the
   authenticated handshake. A dropped link reconnects, a retransmitted
   result dies in the at-most-once merge, and a joiner with the wrong
   key is refused without touching the run. *)
let keyed_tcp_fleet () =
  let cfg chaos =
    {
      (shard_cfg ~workers:3) with
      Coord.listen = Some (Transport.Tcp ("127.0.0.1", 0));
      auth_key = Some "test-preshared-key";
      chaos;
    }
  in
  let st = fault_row "clean" (cfg []) in
  Alcotest.(check int) "clean: one spawn per worker" 3 st.Coord.spawns;
  let st = fault_row "partition" (cfg (fault_at ~after:2 Faultgen.Net_partition)) in
  Alcotest.(check bool) "partition: a link dropped" true (st.Coord.partitions >= 1);
  let st = fault_row "duplicate" (cfg (fault_at Faultgen.Net_dup)) in
  Alcotest.(check bool) "duplicate: second delivery dropped" true (st.Coord.duplicates >= 1);
  let st = fault_row "wrong-key joiner" (cfg (fault_at Faultgen.Auth_bad)) in
  Alcotest.(check bool) "wrong-key joiner: refused" true (st.Coord.auth_rejects >= 1)

(* A slowed link holds only its own frames: while the window lasts the
   coordinator leaves that worker's socket unread, so its in-flight
   results wait and it gets nothing new, and the other worker computes
   the rest. The window stays below the heartbeat timeout. *)
let slow_link () =
  let cfg =
    { (shard_cfg ~workers:2) with Coord.telemetry = true; chaos = fault_at Faultgen.Net_slow }
  in
  let st = fault_row ~t:big_trace ~reference:big_reference "slow link" cfg in
  Alcotest.(check int) "slow link: never declared dead" 0 st.Coord.heartbeat_misses;
  match computed_per_worker st with
  | [ victim; other ] ->
    if victim > 10 then
      Alcotest.failf "slowed worker computed %d of 40 sources (the other %d)" victim other
  | l -> Alcotest.failf "telemetry from %d workers, expected 2" (List.length l)

(* The wrong key of an auth-bad fault is derived from the fleet's own,
   so without a key the fault cannot be injected: the session refuses it
   as a usage error before any worker starts, naming the fault and where
   a key comes from, instead of reporting a clean run. *)
let coord_auth_bad_needs_key () =
  let plan = plan_of trace in
  let ran = ref false in
  let cfg = { (shard_cfg ~workers:2) with Coord.chaos = fault_at Faultgen.Auth_bad } in
  match
    Coord.with_fleet cfg plan (fun partials_of ->
        ran := true;
        partials_of [ plan.sources.(0) ])
  with
  | Error { Err.code = Err.Usage; msg; _ } ->
    Alcotest.(check bool) "the callback never ran" false !ran;
    List.iter
      (fun word ->
        Alcotest.(check bool) ("the error names " ^ word) true (Util.contains_substring msg word))
      [ "auth-bad"; "--auth-key"; "OMN_SHARD_KEY" ]
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "auth-bad without a key ran as a clean fleet"

let suite =
  [
    Alcotest.test_case "dispatch: one batch splits evenly, extras to the lowest ids" `Quick
      dispatch_splits_evenly;
    Alcotest.test_case "frame round-trip" `Quick frame_roundtrip;
    Alcotest.test_case "frame CRC rejects corruption; Eof on close" `Quick frame_corrupt_and_eof;
    QCheck_alcotest.to_alcotest prop_frame_decode_fuzz;
    QCheck_alcotest.to_alcotest prop_proto_decode_fuzz;
    Alcotest.test_case "protocol messages round-trip" `Quick proto_roundtrip;
    Alcotest.test_case "two sessions at once: distinct sockets, both serve" `Quick
      coord_nested_sessions;
    Alcotest.test_case "transport address parsing" `Quick transport_parse;
    Alcotest.test_case "transport TCP listen/dial/frame; typed dial failure" `Quick
      transport_tcp_dial;
    Alcotest.test_case "auth hmac" `Quick auth_hmac;
    Alcotest.test_case "auth handshake: matching keys accepted" `Quick auth_handshake_ok;
    Alcotest.test_case "auth handshake: wrong key is typed E-AUTH" `Quick auth_wrong_key;
    Alcotest.test_case "auth handshake: replay and version mismatch rejected" `Quick
      auth_replay_and_version;
    Alcotest.test_case "trace store round-trip; corruption is a miss" `Quick store_roundtrip;
    Alcotest.test_case "merged partials bit-identical to compute" `Quick
      partial_merge_bit_identity;
    Alcotest.test_case "3-worker run bit-identical to single-process" `Quick coord_bit_identity;
    Alcotest.test_case "worker kill: failover, no source lost" `Quick coord_kill_failover;
    Alcotest.test_case "membership churn: joins and leaves keep bit-identity" `Quick
      coord_membership;
    Alcotest.test_case "signal storm: EINTR never kills a live worker" `Quick coord_signal_storm;
    QCheck_alcotest.to_alcotest prop_single_kill_schedules;
    Alcotest.test_case "fleet telemetry: merged totals, segments, live scrape" `Quick
      coord_fleet_telemetry;
    Alcotest.test_case "shard fault names round-trip" `Quick shard_fault_names_roundtrip;
    Alcotest.test_case "idle between batches is not worker silence" `Quick
      coord_idle_between_batches;
    Alcotest.test_case "worker survives a Failed source" `Quick coord_failed_path;
    Alcotest.test_case "fleet resumes from the driver's checkpoint" `Quick
      coord_resume_from_checkpoint;
    Alcotest.test_case "unkeyed peers: another build is E-PROTO, one build serves" `Quick
      unkeyed_hello;
    Alcotest.test_case
      "socket faults: a hung worker and a corrupt frame are replaced, merge identical" `Quick
      socket_faults;
    Alcotest.test_case
      "keyed TCP fleet: clean, partition, duplicate and a wrong-key joiner keep the merge" `Quick
      keyed_tcp_fleet;
    Alcotest.test_case "slow link: only its own frames wait, its worker computes fewer sources"
      `Quick slow_link;
    Alcotest.test_case "auth-bad without a key refused before any worker starts" `Quick
      coord_auth_bad_needs_key;
  ]
