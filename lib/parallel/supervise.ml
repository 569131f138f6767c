module Metrics = Omn_obs.Metrics
module Timeline = Omn_obs.Timeline
module Rng = Omn_stats.Rng

let m_retries = Metrics.counter "supervise.retries"
let m_failures = Metrics.counter "supervise.task_failures"
let m_quarantined = Metrics.counter "supervise.quarantined"
let m_deadline = Metrics.counter "supervise.deadline_giveups"
let m_io_retries = Metrics.counter "resilience.io_retries"

(* Retry_io and Checkpoint sit below the metrics/timeline registry in
   the dependency order, so their hooks are wired up here, where both
   sides are visible. *)
let () =
  Omn_robust.Retry_io.on_retry :=
    (fun ~op ->
      Metrics.incr m_io_retries;
      Timeline.record (Io_retry { op }));
  Omn_robust.Checkpoint.on_rotate := fun ~path -> Timeline.record (Ckpt_rotate { path })

type policy = {
  retries : int;
  backoff : float;
  backoff_max : float;
  jitter_seed : int;
  task_deadline : float option;
  quarantine : bool;
}

let default =
  {
    retries = 2;
    backoff = 0.05;
    backoff_max = 1.;
    jitter_seed = 0;
    task_deadline = None;
    quarantine = true;
  }

type failure = { item : int; attempts : int; reason : string }

let pp_failure ppf f =
  Format.fprintf ppf "item %d quarantined after %d attempt(s): %s" f.item f.attempts f.reason

(* Checkpoint snapshots and wire messages store failures as plain tuples
   so their Marshal layout does not depend on this record's
   representation. *)
let failure_to_tuple f = (f.item, f.attempts, f.reason)
let failure_of_tuple (item, attempts, reason) = { item; attempts; reason }

let exit_code ~partial ~degraded = if partial then 124 else if degraded then 3 else 0

let task_fault : (item:int -> attempt:int -> unit) option Atomic.t = Atomic.make None
let set_task_fault h = Atomic.set task_fault h

let backoff_delay policy ~item ~attempt =
  let base = Float.min policy.backoff_max (policy.backoff *. (2. ** float_of_int attempt)) in
  let rng = Rng.create (policy.jitter_seed lxor Hashtbl.hash (item, attempt)) in
  base *. (0.5 +. (0.5 *. Rng.float rng))

(* An infinite deadline is no limit; NaN fails every [>= 0.]. *)
let validate policy =
  if policy.retries < 0 then invalid_arg "Supervise: retries < 0";
  if not (policy.backoff >= 0. && policy.backoff_max >= 0.) then
    invalid_arg "Supervise: negative backoff";
  match policy.task_deadline with
  | Some d when not (d >= 0.) ->
    Printf.ksprintf invalid_arg "Supervise: task deadline %g is not >= 0" d
  | _ -> ()

let run_task ?(clock = Unix.gettimeofday) ?(sleep = Unix.sleepf) policy ~item f =
  validate policy;
  let attempt_once a =
    (match Atomic.get task_fault with Some h -> h ~item ~attempt:a | None -> ());
    f ()
  in
  let rec go a =
    let t0 = clock () in
    match attempt_once a with
    | v -> Ok v
    | exception e ->
      Metrics.incr m_failures;
      let overran =
        match policy.task_deadline with Some d -> clock () -. t0 > d | None -> false
      in
      if overran then Metrics.incr m_deadline;
      if overran || a >= policy.retries then
        if policy.quarantine then begin
          Metrics.incr m_quarantined;
          Timeline.record (Quarantine { item; attempts = a + 1 });
          Error { item; attempts = a + 1; reason = Printexc.to_string e }
        end
        else raise e
      else begin
        Metrics.incr m_retries;
        Timeline.record (Retry { item; attempt = a });
        sleep (backoff_delay policy ~item ~attempt:a);
        go (a + 1)
      end
  in
  go 0

let map ?pool ?(domains = 1) ?(clock = Unix.gettimeofday) ?(sleep = Unix.sleepf) ?id policy f xs =
  validate policy;
  let tagged = Array.mapi (fun i x -> (i, x)) xs in
  Pool.run ?pool ~domains
    (fun (i, x) ->
      let item = match id with Some g -> g x | None -> i in
      run_task ~clock ~sleep policy ~item (fun () -> f x))
    tagged

let failures results =
  Array.to_list results
  |> List.filter_map (function Error (f : failure) -> Some f | Ok _ -> None)
