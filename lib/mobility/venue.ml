module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Contact = Omn_temporal.Contact

type place = { name : string; width : int; height : int; isolated : bool }

type params = {
  places : place array;
  schedule : node:int -> float -> float array;
  home_zone : node:int -> place:int -> int option;
  home_bias : float;
  move_rate : float -> float;
  move_rate_max : float;
  zone_rate : float -> float;
  zone_rate_max : float;
  t_start : float;
  t_end : float;
  min_overlap : float;
}

type classified = { near : Omn_temporal.Trace.t; far : Omn_temporal.Trace.t }

let zones place = place.width * place.height

let check p =
  if Array.length p.places = 0 then invalid_arg "Venue: no places";
  Array.iter
    (fun pl -> if pl.width < 1 || pl.height < 1 then invalid_arg "Venue: empty place grid")
    p.places;
  if not (Float.is_finite p.t_start && Float.is_finite p.t_end && p.t_start < p.t_end) then
    Printf.ksprintf invalid_arg "Venue: window [%g, %g] is not finite and non-empty" p.t_start
      p.t_end;
  if p.move_rate_max <= 0. || p.zone_rate_max <= 0. then invalid_arg "Venue: zero envelopes";
  if p.min_overlap < 0. then invalid_arg "Venue: negative min_overlap"

let pick_place rng p ~node time =
  let weights = p.schedule ~node time in
  if Array.length weights <> Array.length p.places then
    invalid_arg "Venue: schedule arity mismatch";
  let total =
    Array.fold_left
      (fun acc w -> if w < 0. then invalid_arg "Venue: negative weight" else acc +. w)
      0. weights
  in
  if total <= 0. then 0
  else begin
    let u = Rng.float rng *. total in
    let acc = ref 0. and chosen = ref (Array.length weights - 1) in
    (try
       Array.iteri
         (fun i w ->
           acc := !acc +. w;
           if u <= !acc then begin
             chosen := i;
             raise Exit
           end)
         weights
     with Exit -> ());
    !chosen
  end

(* One node's piecewise-constant (place, zone) trajectory, as segments
   (t0, t1, place, zone); consecutive identical states are coalesced. *)
let trajectory rng p ~node =
  let envelope = p.move_rate_max +. p.zone_rate_max in
  let segments = ref [] in
  let seg_start = ref p.t_start in
  (* Zones with a home (hotel room, office desk) pull the node back with
     probability [home_bias] at each draw. *)
  let pick_zone place_idx =
    match p.home_zone ~node ~place:place_idx with
    | Some z when Rng.float rng < p.home_bias ->
      if z < 0 || z >= zones p.places.(place_idx) then invalid_arg "Venue: home zone range";
      z
    | _ -> Rng.int rng (zones p.places.(place_idx))
  in
  let place = ref (pick_place rng p ~node p.t_start) in
  let zone = ref (pick_zone !place) in
  let emit upto =
    if upto > !seg_start then segments := (!seg_start, upto, !place, !zone) :: !segments
  in
  let t = ref p.t_start in
  let continue = ref true in
  while !continue do
    t := !t +. Rng.exponential rng envelope;
    if !t >= p.t_end then begin
      emit p.t_end;
      continue := false
    end
    else begin
      let u = Rng.float rng *. envelope in
      let mu = p.move_rate !t in
      let nu = p.zone_rate !t in
      if u < mu then begin
        let next_place = pick_place rng p ~node !t in
        let next_zone = pick_zone next_place in
        if next_place <> !place || next_zone <> !zone then begin
          emit !t;
          seg_start := !t;
          place := next_place;
          zone := next_zone
        end
      end
      else if u < mu +. nu then begin
        let next_zone = pick_zone !place in
        if next_zone <> !zone then begin
          emit !t;
          seg_start := !t;
          zone := next_zone
        end
      end
      (* else: thinned-out candidate, nothing happens *)
    end
  done;
  List.rev !segments

(* Merge touching intervals per pair and hand each merged contact to a
   callback — shared by the trace-building and disk-sharded paths. *)
let iter_raw raw f =
  Hashtbl.iter
    (fun (a, b) intervals ->
      let sorted = List.sort compare !intervals in
      let flush (s, e) = f (Contact.make ~a ~b ~t_beg:s ~t_end:e) in
      let pending =
        List.fold_left
          (fun pending (s, e) ->
            match pending with
            | None -> Some (s, e)
            | Some (ps, pe) ->
              if s <= pe then Some (ps, Float.max pe e)
              else begin
                flush (ps, pe);
                Some (s, e)
              end)
          None sorted
      in
      Option.iter flush pending)
    raw

let trace_of_raw ~name ~n ~t_start ~t_end raw =
  let contacts = ref [] in
  iter_raw raw (fun c -> contacts := c :: !contacts);
  Trace.create ~name ~n_nodes:n ~t_start ~t_end !contacts

(* The RNG-consuming part of generation: trajectories, place buckets and
   the per-place sweep filling the near/far interval tables. Extracted
   so the sharded path draws the identical stream as {!generate}. *)
let raw_tables rng ~n p =
  check p;
  if n < 1 then invalid_arg "Venue.generate: n < 1";
  (* Bucket all nodes' segments by place; zones are grid positions and
     radio reaches Chebyshev distance 1. *)
  let buckets : (int, (float * float * int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    List.iter
      (fun (t0, t1, place, zone) ->
        match Hashtbl.find_opt buckets place with
        | Some l -> l := (t0, t1, zone, node) :: !l
        | None -> Hashtbl.add buckets place (ref [ (t0, t1, zone, node) ]))
      (trajectory rng p ~node)
  done;
  let near_raw : (int * int, (float * float) list ref) Hashtbl.t = Hashtbl.create 1024 in
  let far_raw : (int * int, (float * float) list ref) Hashtbl.t = Hashtbl.create 1024 in
  let record table a b t0 t1 =
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt table key with
    | Some l -> l := (t0, t1) :: !l
    | None -> Hashtbl.add table key (ref [ (t0, t1) ])
  in
  Hashtbl.iter
    (fun place_idx segs ->
      let width = p.places.(place_idx).width in
      let reach = if p.places.(place_idx).isolated then 0 else 1 in
      let sorted = List.sort compare !segs in
      let active = ref [] in
      List.iter
        (fun (t0, t1, zone, node) ->
          active := List.filter (fun (_, e, _, _) -> e > t0) !active;
          let x = zone mod width and y = zone / width in
          List.iter
            (fun (s0, e0, other_zone, other) ->
              if other <> node then begin
                let ox = other_zone mod width and oy = other_zone / width in
                let dist = max (abs (x - ox)) (abs (y - oy)) in
                if dist <= reach then begin
                  let o0 = Float.max t0 s0 and o1 = Float.min t1 e0 in
                  if o1 -. o0 >= p.min_overlap && o1 > o0 then
                    record (if dist = 0 then near_raw else far_raw) node other o0 o1
                end
              end)
            !active;
          active := (t0, t1, zone, node) :: !active)
        sorted)
    buckets;
  (near_raw, far_raw)

let generate_classified rng ~n ~name p =
  let near_raw, far_raw = raw_tables rng ~n p in
  {
    near = trace_of_raw ~name:(name ^ "/near") ~n ~t_start:p.t_start ~t_end:p.t_end near_raw;
    far = trace_of_raw ~name:(name ^ "/far") ~n ~t_start:p.t_start ~t_end:p.t_end far_raw;
  }

let generate rng ~n ~name p =
  let { near; far } = generate_classified rng ~n ~name p in
  Trace.with_name (Omn_temporal.Transform.merge near far) name

let iter_contacts rng ~n p f =
  let near_raw, far_raw = raw_tables rng ~n p in
  iter_raw near_raw f;
  iter_raw far_raw f

(* --- Calibrated venues --- *)

let hour = 3600.
let day = 86400.

let time_of_day t =
  let x = Float.rem t day in
  if x < 0. then x +. day else x

let conference_params ~rng ~n ~days =
  let hotel_width = max 60 (4 * n) in
  (* Engagement heterogeneity: a third of the participants skip much of
     the programme (side meetings, sightseeing, device in the bag) —
     without them direct-contact probabilities come out far above the
     measured ones. *)
  let engaged = Array.init n (fun _ -> Rng.float rng >= 0.33) in
  let places =
    [|
      { name = "hall"; width = 3; height = 2; isolated = false };
      { name = "coffee"; width = 2; height = 2; isolated = false };
      { name = "corridor"; width = 3; height = 1; isolated = false };
      { name = "restaurant"; width = 3; height = 3; isolated = false };
      { name = "hotel"; width = hotel_width; height = 1; isolated = true };
    |]
  in
  (* Hotel rooms are fixed and shared two by two (roommates), spread out
     so distinct rooms are out of radio range. *)
  let home_zone ~node ~place =
    if place = 4 then Some (node / 2 mod hotel_width) else None
  in
  let schedule ~node t =
    let x = time_of_day t /. hour in
    let base =
      if x < 7.5 then [| 0.; 0.; 0.; 0.; 1. |]
      else if x < 9. then [| 0.05; 0.2; 0.3; 0.35; 0.1 |] (* breakfast, arrival *)
      else if x < 10.5 then [| 0.8; 0.05; 0.1; 0.; 0.05 |] (* morning session *)
      else if x < 11. then [| 0.1; 0.65; 0.25; 0.; 0. |] (* coffee break *)
      else if x < 12.5 then [| 0.8; 0.05; 0.1; 0.; 0.05 |] (* late morning *)
      else if x < 14. then [| 0.05; 0.1; 0.15; 0.65; 0.05 |] (* lunch *)
      else if x < 15.5 then [| 0.75; 0.05; 0.1; 0.; 0.1 |] (* afternoon *)
      else if x < 16. then [| 0.1; 0.65; 0.25; 0.; 0. |] (* coffee break *)
      else if x < 18. then [| 0.7; 0.05; 0.15; 0.; 0.1 |] (* last session *)
      else if x < 22.5 then [| 0.; 0.05; 0.25; 0.45; 0.25 |] (* evening *)
      else [| 0.; 0.; 0.05; 0.05; 0.9 |]
    in
    if engaged.(node) then base
    else begin
      (* Less engaged: mostly away (modelled as the hotel place, whose
         spread-out rooms isolate), dips into the programme. *)
      let away = Array.map (fun w -> w *. 0.3) base in
      away.(4) <- away.(4) +. 0.7;
      away
    end
  in
  let daytime t =
    let x = time_of_day t /. hour in
    7.5 <= x && x < 23.
  in
  let session t =
    let x = time_of_day t /. hour in
    (9. <= x && x < 10.5) || (11. <= x && x < 12.5) || (14. <= x && x < 15.5)
    || (16. <= x && x < 18.)
  in
  {
    places;
    schedule;
    home_zone;
    home_bias = 0.97;
    move_rate = (fun t -> if daytime t then 1. /. (30. *. 60.) else 1. /. (5. *. hour));
    move_rate_max = 1. /. (30. *. 60.);
    zone_rate =
      (fun t ->
        if session t then 1. /. (40. *. 60.) (* sitting through talks *)
        else if daytime t then 1. /. (3.5 *. 60.) (* milling around *)
        else 1. /. (5. *. hour));
    zone_rate_max = 1. /. (3.5 *. 60.);
    t_start = 0.;
    t_end = days *. day;
    min_overlap = 5.;
  }

let campus_params ~rng ~n ~n_groups ~weeks =
  let group = Array.init n (fun i -> i mod n_groups) in
  Rng.shuffle rng group;
  (* Rank within the group: office mates are consecutive ranks. *)
  let rank = Array.make n 0 in
  let counters = Array.make n_groups 0 in
  for node = 0 to n - 1 do
    rank.(node) <- counters.(group.(node));
    counters.(group.(node)) <- counters.(group.(node)) + 1
  done;
  let building_w = 3 and building_h = 3 in
  let buildings =
    Array.init n_groups (fun i ->
        {
          name = Printf.sprintf "building%d" i;
          width = building_w;
          height = building_h;
          isolated = false;
        })
  in
  let home_width = max 60 (4 * n) in
  let places =
    Array.concat
      [
        buildings;
        [|
          { name = "cafeteria"; width = 3; height = 3; isolated = false };
          { name = "campus"; width = 8; height = 5; isolated = true };
          { name = "home"; width = home_width; height = 1; isolated = true };
        |];
      ]
  in
  let n_places = Array.length places in
  let cafeteria = n_groups and campus = n_groups + 1 and home = n_groups + 2 in
  (* Shared offices (two consecutive ranks per desk zone, spread across
     the building so offices are out of range of each other), private
     homes far apart. *)
  let home_zone ~node ~place =
    if place = home then Some (node mod home_width)
    else if place = group.(node) then begin
      let office = rank.(node) / 3 in
      Some ((office * 2) mod (building_w * building_h))
    end
    else None
  in
  (* Not everyone comes to campus every day (travel, phone off, off-site
     work) — a big part of why Reality-Mining contact rates are low. *)
  (* A sixth of the population collaborates with a second group and
     visits its building — the cross-community shortcuts real campuses
     have. *)
  let secondary =
    Array.init n (fun node ->
        if n_groups > 1 && Rng.float rng < 0.18 then begin
          let other = Rng.int rng (n_groups - 1) in
          Some (if other >= group.(node) then other + 1 else other)
        end
        else None)
  in
  let n_days = (weeks * 7) + 1 in
  let attendance = Array.init n (fun _ -> Array.init n_days (fun _ -> Rng.float rng < 0.45)) in
  let weekday t = int_of_float (Float.floor (t /. day)) mod 7 < 5 in
  let attending node t =
    let d = int_of_float (Float.floor (t /. day)) in
    d >= 0 && d < n_days && attendance.(node).(d)
  in
  let schedule ~node t =
    let x = time_of_day t /. hour in
    let w = Array.make n_places 0. in
    if (not (weekday t)) || x < 8.5 || x >= 19.5 || not (attending node t) then begin
      w.(home) <- 0.92;
      w.(campus) <- 0.08
    end
    else if 12. <= x && x < 13.5 then begin
      w.(cafeteria) <- 0.45;
      w.(group.(node)) <- 0.4;
      w.(campus) <- 0.15
    end
    else begin
      (match secondary.(node) with
      | Some second ->
        w.(group.(node)) <- 0.57;
        w.(second) <- 0.25
      | None -> w.(group.(node)) <- 0.82);
      w.(campus) <- 0.09;
      w.(cafeteria) <- 0.02;
      w.(home) <- 0.07
    end;
    w
  in
  let working t =
    let x = time_of_day t /. hour in
    weekday t && 8.5 <= x && x < 19.5
  in
  {
    places;
    schedule;
    home_zone;
    home_bias = 0.8;
    move_rate = (fun t -> if working t then 1. /. (2. *. hour) else 1. /. (6. *. hour));
    move_rate_max = 1. /. (2. *. hour);
    zone_rate = (fun t -> if working t then 1. /. (1.7 *. hour) else 1. /. (6. *. hour));
    zone_rate_max = 1. /. (1.7 *. hour);
    t_start = 0.;
    t_end = float_of_int weeks *. 7. *. day;
    min_overlap = 20.;
  }

let wlan_campus_params ~rng ~n ~weeks =
  (* WLAN-trace methodology (the Dartmouth/UCSD data sets the paper also
     validated on): two devices are "in contact" while associated to the
     same access point, so zones are isolated APs and there is no
     adjacent-zone marginal-radio class. *)
  let n_buildings = 10 in
  let majors = Array.init n (fun _ -> Rng.int rng n_buildings) in
  let minors = Array.init n (fun _ -> Rng.int rng n_buildings) in
  let buildings =
    Array.init n_buildings (fun i ->
        { name = Printf.sprintf "academic%d" i; width = 6; height = 1; isolated = true })
  in
  let dorm_width = max 60 (2 * n) in
  let places =
    Array.concat
      [
        buildings;
        [|
          { name = "library"; width = 8; height = 1; isolated = true };
          { name = "student-center"; width = 4; height = 1; isolated = true };
          { name = "dorm"; width = dorm_width; height = 1; isolated = true };
        |];
      ]
  in
  let n_places = Array.length places in
  let library = n_buildings and center = n_buildings + 1 and dorm = n_buildings + 2 in
  let weekday t = int_of_float (Float.floor (t /. day)) mod 7 < 5 in
  let schedule ~node t =
    let x = time_of_day t /. hour in
    let w = Array.make n_places 0. in
    if (not (weekday t)) || x < 8.5 || x >= 22.5 then w.(dorm) <- 1.
    else if x < 17.5 then begin
      (* class hours: mostly the major's building, some minor, breaks *)
      w.(majors.(node)) <- 0.55;
      w.(minors.(node)) <- 0.2;
      w.(center) <- 0.15;
      w.(library) <- 0.1
    end
    else begin
      w.(library) <- 0.35;
      w.(center) <- 0.2;
      w.(dorm) <- 0.45
    end;
    w
  in
  let home_zone ~node ~place = if place = dorm then Some (node mod dorm_width) else None in
  let active t =
    let x = time_of_day t /. hour in
    weekday t && 8.5 <= x && x < 22.5
  in
  {
    places;
    schedule;
    home_zone;
    home_bias = 0.9;
    move_rate = (fun t -> if active t then 1. /. (70. *. 60.) else 1. /. (8. *. hour));
    move_rate_max = 1. /. (70. *. 60.);
    zone_rate = (fun t -> if active t then 1. /. (50. *. 60.) else 1. /. (8. *. hour));
    zone_rate_max = 1. /. (50. *. 60.);
    t_start = 0.;
    t_end = float_of_int weeks *. 7. *. day;
    min_overlap = 30.;
  }
