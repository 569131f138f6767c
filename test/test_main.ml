let () =
  (* Worker-mode escape hatch for the shard suite: the coordinator's
     [Spawn_exec] re-executes [Sys.executable_name worker --id I --sock P],
     and under the test runner that is this binary. Intercept the worker
     argv before Alcotest sees it. ([Spawn_fork] is unusable from the
     full suite: earlier suites create domains, and OCaml 5 forbids
     [Unix.fork] in a process with more than one domain.) *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "worker" then begin
    let arg flag =
      (* both [--flag VALUE] and the glued [--flag=VALUE] form *)
      let glued = flag ^ "=" in
      let rec find i =
        if i >= Array.length Sys.argv then None
        else if Sys.argv.(i) = flag && i + 1 < Array.length Sys.argv then
          Some Sys.argv.(i + 1)
        else if String.starts_with ~prefix:glued Sys.argv.(i) then
          Some (String.sub Sys.argv.(i) (String.length glued)
                  (String.length Sys.argv.(i) - String.length glued))
        else find (i + 1)
      in
      find 2
    in
    let mode =
      match (arg "--connect", arg "--sock") with
      | Some a, _ -> (
        match Omn_shard.Transport.parse a with
        | Ok addr -> Omn_shard.Worker.Dial addr
        | Error _ -> exit 2)
      | None, Some p -> Omn_shard.Worker.Dial (Omn_shard.Transport.Unix_path p)
      | None, None -> exit 2
    in
    let worker =
      match arg "--id" with Some id -> int_of_string id | None -> -1
    in
    let auth_key =
      match arg "--auth-key" with
      | Some _ as k -> k
      | None -> Sys.getenv_opt "OMN_SHARD_KEY"
    in
    match
      Omn_shard.Worker.main ~worker ~mode ?auth_key ?trace_cache:(arg "--trace-cache") ()
    with
    | Ok () -> exit 0
    | Error e ->
      prerr_endline (Omn_robust.Err.to_string e);
      exit (Omn_robust.Err.exit_code e.code)
  end

let () =
  Alcotest.run "omnet-diameter"
    [
      ("stats", Test_stats.suite);
      ("parallel", Test_parallel.suite);
      ("temporal", Test_temporal.suite);
      ("transform", Test_transform.suite);
      ("frontier", Test_frontier.suite);
      ("delivery", Test_delivery.suite);
      ("journey", Test_journey.suite);
      ("delay-cdf", Test_delay_cdf.suite);
      ("diameter", Test_diameter.suite);
      ("baseline", Test_baseline.suite);
      ("forwarding", Test_forwarding.suite);
      ("randnet", Test_randnet.suite);
      ("mobility", Test_mobility.suite);
      ("robust", Test_robust.suite);
      ("chaos", Test_chaos.suite);
      ("shard", Test_shard.suite);
      ("misc", Test_misc.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("differential", Test_differential.suite);
      ("stream", Test_stream.suite);
      ("sampling", Test_sampling.suite);
      ("reproduction", Test_reproduction.suite);
    ]
