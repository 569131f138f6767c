module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact
module Heap = Omn_stats.Heap
module Rng = Omn_stats.Rng
module Pool = Omn_parallel.Pool

let m_messages = Omn_obs.Metrics.counter "forward.messages_done"

type outcome = {
  delivered : bool;
  delay : float;
  hops : int;
  transmissions : int;
  nodes_reached : int;
}

type node_state = {
  mutable hops : int;          (* min hops of any copy held; max_int = none *)
  mutable copies : int;        (* spray budget; >= 1 once infected *)
  mutable received_from : int; (* first-contact: no immediate bounce-back *)
  mutable received_at : float; (* first-contact: no re-forward at the very
                                  instant of reception (prevents zero-time
                                  cycles through cliques of open contacts) *)
}

(* NaN fails every comparison, so a deadline must pass [>= 0.]. *)
let check_deadline fn deadline =
  if not (deadline >= 0.) then
    invalid_arg (Printf.sprintf "%s: deadline %g is not >= 0" fn deadline)

let check_protocol fn = function
  | Protocol.Spray_and_wait { copies } when copies < 1 -> invalid_arg (fn ^ ": copies < 1")
  | Protocol.Epidemic { ttl = Some k } when k < 0 ->
    invalid_arg (Printf.sprintf "%s: epidemic TTL %d is negative" fn k)
  | _ -> ()

let run trace ~protocol ~source ~dest ~t0 ~deadline =
  let n = Trace.n_nodes trace in
  if source < 0 || source >= n || dest < 0 || dest >= n then invalid_arg "Sim.run: bad node";
  if source = dest then invalid_arg "Sim.run: source = dest";
  check_deadline "Sim.run" deadline;
  check_protocol "Sim.run" protocol;
  let give_up = t0 +. deadline in
  let states =
    Array.init n (fun _ ->
        { hops = max_int; copies = 0; received_from = -1; received_at = nan })
  in
  states.(source).hops <- 0;
  states.(source).copies <-
    (match protocol with Protocol.Spray_and_wait { copies } -> copies | _ -> 1);
  let holder = ref source (* single-copy protocols *) in
  (* Last-encounter routing state: when did each node last meet [dest]?
     Advanced lazily over the trace's contacts (by begin time) up to the
     current simulation instant, independent of the message. *)
  let last_meet = Array.make n neg_infinity in
  last_meet.(dest) <- infinity;
  let all_contacts = Trace.contacts trace in
  let cursor = ref 0 in
  let advance_last_meet upto =
    while
      !cursor < Array.length all_contacts && all_contacts.(!cursor).Contact.t_beg <= upto
    do
      let c = all_contacts.(!cursor) in
      if c.a = dest then last_meet.(c.b) <- Float.max last_meet.(c.b) c.t_beg
      else if c.b = dest then last_meet.(c.a) <- Float.max last_meet.(c.a) c.t_beg;
      incr cursor
    done
  in
  let transmissions = ref 0 in
  let reached = ref 1 in
  let delivery = ref None in
  (* Transfer the message to [v] at time [tau]: bookkeeping shared by all
     protocols. *)
  let infect ~from ~v ~tau ~hops ~copies =
    if states.(v).hops = max_int then incr reached;
    states.(v).hops <- min states.(v).hops hops;
    states.(v).copies <- max states.(v).copies copies;
    states.(v).received_from <- from;
    states.(v).received_at <- tau;
    incr transmissions;
    if v = dest && !delivery = None then delivery := Some (tau, hops)
  in
  (* Protocol rule for an opportunity u -> v at time tau. Returns true if
     the state changed (used to cascade re-offers). *)
  let exchange u v tau =
    let su = states.(u) and sv = states.(v) in
    if su.hops = max_int then false
    else begin
      match protocol with
      | Protocol.Epidemic { ttl } ->
        let next = su.hops + 1 in
        let within = match ttl with None -> true | Some k -> next <= k in
        if within && next < sv.hops then begin
          infect ~from:u ~v ~tau ~hops:next ~copies:1;
          true
        end
        else false
      | Protocol.Direct ->
        if u = source && v = dest && sv.hops = max_int then begin
          infect ~from:u ~v ~tau ~hops:1 ~copies:1;
          true
        end
        else false
      | Protocol.Two_hop ->
        if sv.hops = max_int && (u = source || v = dest) then begin
          infect ~from:u ~v ~tau ~hops:(su.hops + 1) ~copies:1;
          true
        end
        else false
      | Protocol.Spray_and_wait _ ->
        if sv.hops = max_int && (su.copies > 1 || v = dest) then begin
          let handed = if v = dest then 1 else su.copies / 2 in
          infect ~from:u ~v ~tau ~hops:(su.hops + 1) ~copies:handed;
          if v <> dest then su.copies <- su.copies - handed;
          true
        end
        else false
      | Protocol.First_contact ->
        if !holder = u && v <> su.received_from && not (su.received_at = tau) then begin
          infect ~from:u ~v ~tau ~hops:(su.hops + 1) ~copies:1;
          su.copies <- 0;
          holder := v;
          true
        end
        else false
      | Protocol.Last_encounter ->
        (* Strictly-improving recency makes same-instant chains terminate
           (no cycle can strictly increase forever). *)
        if !holder = u && (v = dest || last_meet.(v) > last_meet.(u)) then begin
          infect ~from:u ~v ~tau ~hops:(su.hops + 1) ~copies:1;
          su.copies <- 0;
          holder := v;
          true
        end
        else false
    end
  in
  let heap = Heap.create ~cmp:(fun (t1, _) (t2, _) -> Float.compare t1 t2) in
  Array.iter
    (fun (c : Contact.t) ->
      if c.t_end >= t0 && c.t_beg <= give_up then Heap.push heap (Float.max c.t_beg t0, c))
    all_contacts;
  let offer_active_contacts x tau =
    Trace.iter_node_contacts
      (fun (c : Contact.t) -> if c.t_beg <= tau && tau <= c.t_end then Heap.push heap (tau, c))
      trace x
  in
  let rec drain () =
    if !delivery = None then begin
      match Heap.pop heap with
      | None -> ()
      | Some (tau, c) ->
        if tau <= give_up then begin
          advance_last_meet tau;
          if tau <= c.t_end then begin
            let changed_b = exchange c.a c.b tau in
            let changed_a = !delivery = None && exchange c.b c.a tau in
            if changed_b then offer_active_contacts c.b tau;
            if changed_a then offer_active_contacts c.a tau
          end;
          drain ()
        end
      end
  in
  drain ();
  match !delivery with
  | Some (tau, hops) ->
    {
      delivered = true;
      delay = tau -. t0;
      hops;
      transmissions = !transmissions;
      nodes_reached = !reached;
    }
  | None ->
    {
      delivered = false;
      delay = infinity;
      hops = -1;
      transmissions = !transmissions;
      nodes_reached = !reached;
    }

type stats = {
  protocol : Protocol.t;
  messages : int;
  delivered_ratio : float;
  mean_delay : float;
  mean_transmissions : float;
  mean_nodes_reached : float;
}

let evaluate ?pool ?(domains = 1) ?progress rng trace ~protocols ~messages ~deadline =
  if messages < 1 then invalid_arg "Sim.evaluate: messages < 1";
  if domains < 1 then invalid_arg "Sim.evaluate: domains < 1";
  let n = Trace.n_nodes trace in
  if n < 2 then invalid_arg "Sim.evaluate: need two nodes";
  check_deadline "Sim.evaluate" deadline;
  List.iter (check_protocol "Sim.evaluate") protocols;
  Omn_obs.Span.with_ ~name:"sim.evaluate" @@ fun () ->
  let total_msgs = messages * List.length protocols in
  let msgs_done = Atomic.make 0 in
  let t_lo = Trace.t_start trace in
  let t_hi = Float.max t_lo (Trace.t_end trace -. deadline) in
  (* The workload is drawn sequentially up front, so the messages — and
     hence the statistics — do not depend on the parallelism below. *)
  let workload = Array.make messages (0, 0, 0.) in
  for i = 0 to messages - 1 do
    let source = Rng.int rng n in
    let dest = (source + 1 + Rng.int rng (n - 1)) mod n in
    let t0 = Rng.float_range rng t_lo (t_hi +. 1e-9) in
    workload.(i) <- (source, dest, t0)
  done;
  let eval_protocol pool protocol =
    (* One task per message (they are independent simulations); outcomes
       come back in message order and are folded sequentially, so the
       float sums are bit-identical for every domain count. *)
    let outcomes =
      Pool.run ?pool
        (fun (source, dest, t0) ->
          let o = run trace ~protocol ~source ~dest ~t0 ~deadline in
          Omn_obs.Metrics.incr m_messages;
          (match progress with
          | Some p -> p ~done_:(1 + Atomic.fetch_and_add msgs_done 1) ~total:total_msgs
          | None -> ());
          o)
        workload
    in
    let delivered = ref 0 and delay_sum = ref 0. in
    let tx_sum = ref 0 and reach_sum = ref 0 in
    Array.iter
      (fun o ->
        if o.delivered then begin
          incr delivered;
          delay_sum := !delay_sum +. o.delay
        end;
        tx_sum := !tx_sum + o.transmissions;
        reach_sum := !reach_sum + o.nodes_reached)
      outcomes;
    {
      protocol;
      messages;
      delivered_ratio = float_of_int !delivered /. float_of_int messages;
      mean_delay = (if !delivered = 0 then nan else !delay_sum /. float_of_int !delivered);
      mean_transmissions = float_of_int !tx_sum /. float_of_int messages;
      mean_nodes_reached = float_of_int !reach_sum /. float_of_int messages;
    }
  in
  match (pool, domains) with
  | Some p, _ -> List.map (eval_protocol (Some p)) protocols
  | None, 1 -> List.map (eval_protocol None) protocols
  | None, d -> Pool.with_pool ~domains:d (fun p -> List.map (eval_protocol (Some p)) protocols)
