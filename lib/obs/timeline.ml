(* Same sharding discipline as Metrics: each domain's first record
   materialises a ring cell through domain-local storage and registers
   it (under the journal lock) in the cell list; recording then touches
   only the owning domain's cell. Slots hold immutable boxed entries, so
   a concurrent snapshot can read a stale pointer but never a torn
   event. *)

type event =
  | Chunk of { index : int; items : int; start : float }
  | Pool_work of { start : float; stolen : bool }
  | Steal
  | Queue_wait of { seconds : float }
  | Ckpt_write of { path : string; seconds : float }
  | Ckpt_rotate of { path : string }
  | Ckpt_fallback of { path : string }
  | Io_retry of { op : string }
  | Gc_sample of { minor : int; major : int; heap_words : int }
  | Mark of { name : string }
  | Worker_spawn of { worker : int; pid : int }
  | Heartbeat_miss of { worker : int }
  | Frame_corrupt of { worker : int }
  | Reassign of { source : int; from_worker : int; to_worker : int }
  | Worker_rejoin of { worker : int }
  | Member_join of { worker : int }
  | Member_leave of { worker : int }
  | Auth_reject of { reason : string }
  | Trace_ship of { worker : int; bytes : int }
  | Trace_cache_hit of { worker : int }
  | Sample_round of { round : int; sampled : int; width : float }
  | Shard_compute of { source : int; start : float }

type entry = { ts : float; ev : event }

type cell = {
  buf : entry array;
  mutable head : int;  (* index of the oldest live entry *)
  mutable count : int;
  mutable dropped : int;
}

type t = {
  on : bool Atomic.t;
  capacity : int;
  lock : Mutex.t;
  cells : (int * cell) list ref;
  key : cell Domain.DLS.key;
}

let dummy = { ts = 0.; ev = Mark { name = "" } }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Timeline.create: capacity < 1";
  let lock = Mutex.create () in
  let cells = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = { buf = Array.make capacity dummy; head = 0; count = 0; dropped = 0 } in
        Mutex.lock lock;
        cells := ((Domain.self () :> int), c) :: !cells;
        Mutex.unlock lock;
        c)
  in
  { on = Atomic.make false; capacity; lock; cells; key }

let default = create ()
let set_enabled ?(tl = default) b = Atomic.set tl.on b
let enabled ?(tl = default) () = Atomic.get tl.on

let record ?(tl = default) ?ts ev =
  if Atomic.get tl.on then begin
    let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
    let c = Domain.DLS.get tl.key in
    if c.count = tl.capacity then begin
      (* full: overwrite the oldest slot and advance the head *)
      c.buf.(c.head) <- { ts; ev };
      c.head <- (c.head + 1) mod tl.capacity;
      c.dropped <- c.dropped + 1
    end
    else begin
      c.buf.((c.head + c.count) mod tl.capacity) <- { ts; ev };
      c.count <- c.count + 1
    end
  end

let locked tl f =
  Mutex.lock tl.lock;
  match f () with
  | v ->
    Mutex.unlock tl.lock;
    v
  | exception e ->
    Mutex.unlock tl.lock;
    raise e

let reset ?(tl = default) () =
  locked tl (fun () ->
      List.iter
        (fun (_, c) ->
          Array.fill c.buf 0 tl.capacity dummy;
          c.head <- 0;
          c.count <- 0;
          c.dropped <- 0)
        !(tl.cells))

type view = { events : (int * entry) list; dropped : (int * int) list; capacity : int }

let snapshot ?(tl = default) () =
  locked tl (fun () ->
      let events = ref [] and dropped = ref [] in
      List.iter
        (fun (d, (c : cell)) ->
          dropped := (d, c.dropped) :: !dropped;
          for i = c.count - 1 downto 0 do
            events := (d, c.buf.((c.head + i) mod tl.capacity)) :: !events
          done)
        !(tl.cells);
      let events =
        List.stable_sort
          (fun (d1, e1) (d2, e2) ->
            match compare e1.ts e2.ts with 0 -> compare d1 d2 | c -> c)
          !events
      in
      { events; dropped = List.sort compare !dropped; capacity = tl.capacity })

let total_dropped view = List.fold_left (fun acc (_, n) -> acc + n) 0 view.dropped
