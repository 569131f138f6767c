type t = {
  label : string;
  total : int option;
  tty : bool;
  mutable count : int;
  mutable fallback : bool;
  mutable rate : float;  (* EWMA items/s; 0 = no estimate yet *)
  mutable rate_at : float;  (* when the rate was last updated *)
  mutable rate_count : int;  (* count at that moment *)
  mutable last_print : float;
  mutable open_line : bool;  (* a \r-style line is on screen *)
  mutable finished : bool;
  lock : Mutex.t;  (* updates may arrive from pool worker domains *)
}

let min_interval = 0.5

let create ?total ~label () =
  let tty =
    try Unix.isatty (Unix.descr_of_out_channel stderr) with Unix.Unix_error _ | Sys_error _ -> false
  in
  {
    label;
    total;
    tty;
    count = 0;
    fallback = false;
    rate = 0.;
    rate_at = Unix.gettimeofday ();
    rate_count = 0;
    last_print = neg_infinity;
    open_line = false;
    finished = false;
    lock = Mutex.create ();
  }

let fmt_eta s =
  if s < 60. then Printf.sprintf "%.0fs" s
  else if s < 3600. then Printf.sprintf "%.0fm%02.0fs" (Float.of_int (int_of_float s / 60)) (Float.rem s 60.)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s / 60 mod 60)

(* Smooth the instantaneous chunk-completion rate so the ETA doesn't
   whipsaw on uneven chunks; updates only on forward progress, so a
   stalled bar keeps its last honest estimate. *)
let update_rate t now =
  if t.count > t.rate_count && now > t.rate_at then begin
    let inst = float_of_int (t.count - t.rate_count) /. (now -. t.rate_at) in
    t.rate <- (if t.rate = 0. then inst else (0.3 *. inst) +. (0.7 *. t.rate));
    t.rate_at <- now;
    t.rate_count <- t.count
  end

let render t =
  let status = if t.fallback then ", ckpt-fallback" else "" in
  match t.total with
  | Some total when total > 0 ->
    let eta =
      if t.rate > 0. && t.count < total && t.count > 0 then
        Printf.sprintf ", eta %s" (fmt_eta (float_of_int (total - t.count) /. t.rate))
      else ""
    in
    Printf.sprintf "%s: %d/%d (%.1f%%)%s%s" t.label t.count total
      (100. *. float_of_int t.count /. float_of_int total)
      eta status
  | _ -> Printf.sprintf "%s: %d%s" t.label t.count status

let print t ~force =
  let now = Unix.gettimeofday () in
  update_rate t now;
  if (force || now -. t.last_print >= min_interval) && not t.finished then begin
    t.last_print <- now;
    if t.tty then begin
      Printf.fprintf stderr "\r%s%!" (render t);
      t.open_line <- true
    end
    else Printf.fprintf stderr "%s\n%!" (render t)
  end

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set t k =
  locked t @@ fun () ->
  t.count <- max t.count k;
  print t ~force:false

let step ?(n = 1) t =
  locked t @@ fun () ->
  t.count <- t.count + n;
  print t ~force:false

let set_fallback t =
  locked t @@ fun () -> t.fallback <- true

let finish t =
  locked t @@ fun () ->
  if not t.finished then begin
    print t ~force:true;
    if t.open_line then Printf.fprintf stderr "\n%!";
    t.finished <- true
  end
