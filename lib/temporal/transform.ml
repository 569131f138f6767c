module Builder = Trace.Builder

(* Every transform adds its contacts last first. The sort places ties
   that differ only in the sign of a zero by their input order, and
   this is the order the list-based transforms gave [Trace.create], so
   every derived trace keeps its bytes. *)
let build ~name ~n_nodes ~t_start ~t_end buf =
  match Trace.of_builder_result ~name ~n_nodes ~t_start ~t_end buf with
  | Ok t -> t
  | Error e -> invalid_arg (Omn_robust.Err.to_string e)

let rebuild base buf =
  build ~name:(Trace.name base) ~n_nodes:(Trace.n_nodes base) ~t_start:(Trace.t_start base)
    ~t_end:(Trace.t_end base) buf

(* [keep i] runs in trace order: [remove_random] draws once per contact. *)
let filter keep base =
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr base in
  let kept = Array.init (Trace.n_contacts base) keep in
  let buf = Builder.create (Array.fold_left (fun k x -> if x then k + 1 else k) 0 kept) in
  for i = Array.length kept - 1 downto 0 do
    if kept.(i) then
      Builder.add buf ~a:csr_a.(i) ~b:csr_b.(i) ~t_beg:csr_beg.(i) ~t_end:csr_end.(i)
  done;
  rebuild base buf

let remove_random ~rng ~p trace =
  if not (0. <= p && p <= 1.) then invalid_arg "Transform.remove_random: bad p";
  filter (fun _ -> not (Omn_stats.Rng.bernoulli rng p)) trace

let duration trace i =
  let { Trace.csr_beg; csr_end; _ } = Trace.time_csr trace in
  csr_end.(i) -. csr_beg.(i)

(* A NaN threshold compares false with every duration, so it would
   keep no contact (longer) or every one (shorter) without a word; an
   infinite one keeps every contact or none, as asked. *)
let check_threshold fn threshold =
  if Float.is_nan threshold then invalid_arg ("Transform." ^ fn ^ ": NaN threshold")

let keep_longer_than threshold trace =
  check_threshold "keep_longer_than" threshold;
  filter (fun i -> duration trace i > threshold) trace

let keep_shorter_than threshold trace =
  check_threshold "keep_shorter_than" threshold;
  filter (fun i -> duration trace i <= threshold) trace

(* Adds [f i]'s image of every contact, last contact first. *)
let map_rev trace f =
  let buf = Builder.create (Trace.n_contacts trace) in
  for i = Trace.n_contacts trace - 1 downto 0 do
    f buf i
  done;
  buf

let time_window ~t_start ~t_end trace =
  if t_start > t_end then invalid_arg "Transform.time_window: reversed";
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  map_rev trace (fun buf i ->
      if not (csr_end.(i) < t_start || csr_beg.(i) > t_end) then
        Builder.add buf ~a:csr_a.(i) ~b:csr_b.(i) ~t_beg:(Float.max csr_beg.(i) t_start)
          ~t_end:(Float.min csr_end.(i) t_end))
  |> build ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace) ~t_start ~t_end

let restrict_nodes ~keep trace =
  let n = Trace.n_nodes trace in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if keep u then begin
      remap.(u) <- !next;
      incr next
    end
  done;
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  (* [remap] is increasing, so a kept contact stays [a < b]. *)
  let buf =
    map_rev trace (fun buf i ->
        let a = remap.(csr_a.(i)) and b = remap.(csr_b.(i)) in
        if a >= 0 && b >= 0 then
          Builder.add buf ~a ~b ~t_beg:csr_beg.(i) ~t_end:csr_end.(i))
  in
  let back = Array.make !next (-1) in
  Array.iteri (fun old fresh -> if fresh >= 0 then back.(fresh) <- old) remap;
  ( build ~name:(Trace.name trace) ~n_nodes:!next ~t_start:(Trace.t_start trace)
      ~t_end:(Trace.t_end trace) buf,
    back )

let quantize ~granularity trace =
  if granularity <= 0. then invalid_arg "Transform.quantize: granularity <= 0";
  let t0 = Trace.t_start trace and t1 = Trace.t_end trace in
  let snap_down t = t0 +. (Float.floor ((t -. t0) /. granularity) *. granularity) in
  let snap_up t = t0 +. (Float.ceil ((t -. t0) /. granularity) *. granularity) in
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  map_rev trace (fun buf i ->
      Builder.add buf ~a:csr_a.(i) ~b:csr_b.(i) ~t_beg:(Float.max t0 (snap_down csr_beg.(i)))
        ~t_end:(Float.min t1 (snap_up csr_end.(i))))
  |> rebuild trace

let shift delta trace =
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  map_rev trace (fun buf i ->
      Builder.add buf ~a:csr_a.(i) ~b:csr_b.(i) ~t_beg:(csr_beg.(i) +. delta)
        ~t_end:(csr_end.(i) +. delta))
  |> build ~name:(Trace.name trace) ~n_nodes:(Trace.n_nodes trace)
       ~t_start:(Trace.t_start trace +. delta) ~t_end:(Trace.t_end trace +. delta)

let merge t1 t2 =
  if Trace.n_nodes t1 <> Trace.n_nodes t2 then invalid_arg "Transform.merge: node counts differ";
  let buf = Builder.create (Trace.n_contacts t1 + Trace.n_contacts t2) in
  let add_rev trace =
    let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
    for i = Trace.n_contacts trace - 1 downto 0 do
      Builder.add buf ~a:csr_a.(i) ~b:csr_b.(i) ~t_beg:csr_beg.(i) ~t_end:csr_end.(i)
    done
  in
  add_rev t2;
  add_rev t1;
  build ~name:(Trace.name t1) ~n_nodes:(Trace.n_nodes t1)
    ~t_start:(Float.min (Trace.t_start t1) (Trace.t_start t2))
    ~t_end:(Float.max (Trace.t_end t1) (Trace.t_end t2))
    buf
