type t = {
  domains : int;
  mutable workers : unit Domain.t array;
  jobs : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stopping : bool;
}

let recommended () = max 1 (Domain.recommended_domain_count ())

(* OCaml 5 minor collections are stop-the-world across every running
   domain: with the runtime's default ~256k-word minor heap, an
   allocation-heavy workload drags all domains into a synchronisation
   barrier every few milliseconds, and adding domains makes the whole
   pool *slower*. Sizing the minor heap up moves the barrier out of the
   hot path (the frontier core allocates almost nothing in steady
   state; what remains is short-lived float boxes that die in the minor
   heap). [Gc.set] applies the new size to the calling domain and to
   domains spawned afterwards, so [create] tunes the submitter before
   spawning and every worker re-applies it on startup. *)
let minor_heap_words = 1 lsl 22 (* 4M words = 32 MB per domain *)

let tune_gc () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

(* [tasks_run] counts every item processed through [map]; [tasks_stolen]
   the subset executed by a helper domain rather than the submitter.
   [busy_seconds] accumulates per-domain wall time inside the work loop
   (the snapshot's per-domain breakdown shows the split across workers);
   [queue_wait_seconds] is submit-to-first-poll latency per helper. *)
let m_tasks_run = Omn_obs.Metrics.counter "pool.tasks_run"
let m_tasks_stolen = Omn_obs.Metrics.counter "pool.tasks_stolen"
let m_busy = Omn_obs.Metrics.gauge "pool.busy_seconds"
let m_queue_wait = Omn_obs.Metrics.histogram "pool.queue_wait_seconds"

type spec = Auto | Fixed of int

let resolve = function
  | Auto -> recommended ()
  | Fixed k -> if k < 1 then invalid_arg "Pool.resolve: domains < 1" else k

let spec_of_string s =
  if s = "auto" then Some Auto
  else match int_of_string_opt s with Some k when k >= 1 -> Some (Fixed k) | _ -> None

let spec_to_string = function Auto -> "auto" | Fixed k -> string_of_int k

(* Workers block on [nonempty] until a job arrives or the pool shuts
   down. Job exceptions are the submitter's concern ([map] funnels them
   back to the caller); the belt-and-braces handler here only keeps a
   misbehaving job from killing the worker. *)
let worker_loop pool () =
  tune_gc ();
  let rec next () =
    Mutex.lock pool.lock;
    let rec await () =
      match Queue.take_opt pool.jobs with
      | Some job ->
        Mutex.unlock pool.lock;
        Some job
      | None ->
        if pool.stopping then begin
          Mutex.unlock pool.lock;
          None
        end
        else begin
          Condition.wait pool.nonempty pool.lock;
          await ()
        end
    in
    match await () with
    | None -> ()
    | Some job ->
      (try job () with _ -> ());
      next ()
  in
  next ()

let create ?domains () =
  let domains = match domains with None -> recommended () | Some d -> d in
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  if domains > 1 then tune_gc ();
  let pool =
    {
      domains;
      workers = [||];
      jobs = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
    }
  in
  pool.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let domains pool = pool.domains

let shutdown pool =
  Mutex.lock pool.lock;
  if not pool.stopping then begin
    pool.stopping <- true;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers
  end
  else Mutex.unlock pool.lock

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let submit pool copies job =
  Mutex.lock pool.lock;
  for _ = 1 to copies do
    Queue.add job pool.jobs
  done;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock

(* The pool (if any) whose [map] is executing on this domain. Set on
   both the submitting domain and the helpers for the duration of the
   work loop, so a nested [map] on the same pool — which would block
   forever waiting for helpers that can never be scheduled — is caught
   at the call site instead of deadlocking. *)
let current_map : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let with_current_map pool f =
  let cell = Domain.DLS.get current_map in
  let saved = !cell in
  cell := Some pool;
  Fun.protect ~finally:(fun () -> cell := saved) f

let check_usable pool =
  (match !(Domain.DLS.get current_map) with
  | Some p when p == pool ->
    invalid_arg "Pool.map: nested map on the same pool (would deadlock)"
  | _ -> ());
  Mutex.lock pool.lock;
  let stopping = pool.stopping in
  Mutex.unlock pool.lock;
  if stopping then invalid_arg "Pool.map: pool already shut down"

(* The one work loop. Items are taken in index order by whichever
   domain is free; each result goes to [k] on the domain that computed
   it, as soon as it is computed, under [k_lock], so calls to [k] never
   overlap. The first exception of [f] or [k] is re-raised on the
   caller once every item is done; [k] sees no result after it. *)
let feed_on pool f xs k =
  check_usable pool;
  let n = Array.length xs in
  if n = 0 then ()
  else if pool.domains = 1 || n = 1 then begin
    Omn_obs.Metrics.add m_tasks_run n;
    Array.iteri (fun i x -> k i (f x)) xs
  end
  else begin
    let error = Atomic.make None in
    let next = Atomic.make 0 in
    let k_lock = Mutex.create () in
    let fail e = ignore (Atomic.compare_and_set error None (Some e)) in
    let work ~stolen () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          Omn_obs.Metrics.incr m_tasks_run;
          if stolen then Omn_obs.Metrics.incr m_tasks_stolen;
          match f xs.(i) with
          | v ->
            Mutex.lock k_lock;
            (if Option.is_none (Atomic.get error) then try k i v with e -> fail e);
            Mutex.unlock k_lock
          | exception e -> fail e
        end
      done
    in
    (* Timing reads the clock only when metrics or the timeline are on,
       so the disabled path stays exactly the untimed work loop. The
       busy gauge and the timeline's pool.work span share the same two
       clock reads, so the exported spans cover the measured busy time
       exactly. *)
    let timed = Omn_obs.Metrics.enabled () || Omn_obs.Timeline.enabled () in
    let work ~stolen () =
      if not timed then work ~stolen ()
      else begin
        let t0 = Unix.gettimeofday () in
        work ~stolen ();
        let t1 = Unix.gettimeofday () in
        Omn_obs.Metrics.gadd m_busy (t1 -. t0);
        Omn_obs.Timeline.record ~ts:t1 (Pool_work { start = t0; stolen })
      end
    in
    let helpers = min (Array.length pool.workers) (n - 1) in
    let pending = ref helpers in
    let fin_lock = Mutex.create () in
    let fin = Condition.create () in
    let submitted_at = if timed then Unix.gettimeofday () else 0. in
    let helper () =
      if timed then begin
        let now = Unix.gettimeofday () in
        Omn_obs.Metrics.observe m_queue_wait (now -. submitted_at);
        Omn_obs.Timeline.record ~ts:now (Queue_wait { seconds = now -. submitted_at });
        Omn_obs.Timeline.record ~ts:now Steal
      end;
      with_current_map pool (work ~stolen:true);
      Mutex.lock fin_lock;
      decr pending;
      if !pending = 0 then Condition.signal fin;
      Mutex.unlock fin_lock
    in
    submit pool helpers helper;
    with_current_map pool (work ~stolen:false);
    Mutex.lock fin_lock;
    while !pending > 0 do
      Condition.wait fin fin_lock
    done;
    Mutex.unlock fin_lock;
    match Atomic.get error with Some e -> raise e | None -> ()
  end

let feed ?pool ?(domains = 1) f xs k =
  match pool with
  | Some p -> feed_on p f xs k
  | None ->
    if domains <= 1 then Array.iteri (fun i x -> k i (f x)) xs
    else with_pool ~domains (fun p -> feed_on p f xs k)

(* Deterministic fan-out: item [i]'s result lands in slot [i] whichever
   domain computed it, so the returned array — and any in-order reduction
   of it — is independent of the domain count and of scheduling. *)
let collect feed xs =
  let results = Array.make (Array.length xs) None in
  feed (fun i v -> results.(i) <- Some v);
  Array.map (function Some v -> v | None -> assert false) results

let map pool f xs = collect (feed_on pool f xs) xs
let run ?pool ?domains f xs = collect (feed ?pool ?domains f xs) xs
