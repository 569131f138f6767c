module Rng = Omn_stats.Rng

type fault =
  | Truncate of float
  | Mangle of float
  | Nan_times of float
  | Self_loop of float
  | Negative_id of float
  | Window_lie
  | Reorder
  | Duplicate of float
  | Ckpt_truncate of float
  | Ckpt_flip
  | Ckpt_stale

let name = function
  | Truncate _ -> "truncate"
  | Mangle _ -> "mangle"
  | Nan_times _ -> "nan"
  | Self_loop _ -> "self-loop"
  | Negative_id _ -> "negative-id"
  | Window_lie -> "window-lie"
  | Reorder -> "reorder"
  | Duplicate _ -> "duplicate"
  | Ckpt_truncate _ -> "ckpt-truncate"
  | Ckpt_flip -> "ckpt-flip"
  | Ckpt_stale -> "ckpt-stale"

let defaults =
  [
    Truncate 0.5; Mangle 0.25; Nan_times 0.25; Self_loop 0.25; Negative_id 0.25;
    Window_lie; Reorder; Duplicate 0.25; Ckpt_truncate 0.75; Ckpt_flip; Ckpt_stale;
  ]

let of_name s = List.find_opt (fun f -> name f = String.lowercase_ascii s) defaults
let all_names = List.map name defaults

(* --- line-level plumbing --- *)

let split_lines text =
  let lines = String.split_on_char '\n' text in
  match List.rev lines with "" :: rest -> List.rev rest | _ -> lines

let unlines lines = String.concat "\n" lines ^ "\n"

let is_record line =
  let t = String.trim line in
  t <> "" && t.[0] <> '#'

let fields line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let n_records lines = List.length (List.filter is_record lines)

(* Apply [f] to each record line with probability [p], and always to one
   uniformly chosen record so the corruption cannot miss entirely. *)
let map_records rng p f lines =
  let n = n_records lines in
  if n = 0 then lines
  else begin
    let forced = Rng.int rng n in
    let i = ref (-1) in
    List.map
      (fun line ->
        if not (is_record line) then line
        else begin
          incr i;
          if !i = forced || Rng.bernoulli rng p then f line else line
        end)
      lines
  end

let set_field k value line =
  fields line |> List.mapi (fun i f -> if i = k then value f else f) |> String.concat " "

(* --- individual faults --- *)

let truncate frac lines =
  let n = n_records lines in
  if n = 0 then lines
  else begin
    let keep = min (n - 1) (max 0 (int_of_float (frac *. float_of_int n))) in
    let out = ref [] and seen = ref 0 and stopped = ref false in
    List.iter
      (fun line ->
        if !stopped then ()
        else if not (is_record line) then out := line :: !out
        else if !seen < keep then begin
          incr seen;
          out := line :: !out
        end
        else begin
          (* cut the record mid-line: keep only its first three fields *)
          let partial =
            fields line |> List.filteri (fun i _ -> i < 3) |> String.concat " "
          in
          out := partial :: !out;
          stopped := true
        end)
      lines;
    List.rev !out
  end

let mangle rng p lines =
  map_records rng p
    (fun line ->
      let nf = List.length (fields line) in
      if nf = 0 then "?!" else set_field (Rng.int rng nf) (fun _ -> "?!") line)
    lines

let nan_times rng p lines =
  map_records rng p
    (fun line ->
      let nf = List.length (fields line) in
      if nf < 4 then line else set_field (2 + Rng.int rng 2) (fun _ -> "nan") line)
    lines

let self_loop rng p lines =
  map_records rng p
    (fun line ->
      match fields line with
      | a :: _ :: _ -> set_field 1 (fun _ -> a) line
      | _ -> line)
    lines

let negative_id rng p lines =
  map_records rng p
    (fun line ->
      set_field 0
        (fun f ->
          match int_of_string_opt f with
          | Some n -> string_of_int (-(abs n) - 1)
          | None -> "-1")
        line)
    lines

let window_lie lines =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) line ->
        if not (is_record line) then (lo, hi)
        else
          match fields line with
          | [ _; _; tb; te ] -> (
            match (float_of_string_opt tb, float_of_string_opt te) with
            | Some tb, Some te -> (Float.min lo tb, Float.max hi te)
            | _ -> (lo, hi))
          | _ -> (lo, hi))
      (infinity, neg_infinity) lines
  in
  let lo, hi = if lo <= hi then (lo, hi) else (0., 1.) in
  let span = hi -. lo in
  let w0, w1 =
    if span > 0. then (lo +. (0.45 *. span), hi -. (0.45 *. span)) else (lo +. 1., lo +. 2.)
  in
  let lie = Printf.sprintf "# window %.17g %.17g" w0 w1 in
  let replaced = ref false in
  let lines =
    List.map
      (fun line ->
        let t = String.trim line in
        if String.length t >= 8 && String.sub t 0 8 = "# window" then begin
          replaced := true;
          lie
        end
        else line)
      lines
  in
  if !replaced then lines else lie :: lines

let reorder rng lines =
  let records = List.filter is_record lines |> Array.of_list in
  Rng.shuffle rng records;
  let i = ref (-1) in
  List.map
    (fun line ->
      if is_record line then begin
        incr i;
        records.(!i)
      end
      else line)
    lines

let duplicate rng p lines =
  let n = n_records lines in
  if n = 0 then lines
  else begin
    let forced = Rng.int rng n in
    let i = ref (-1) in
    List.concat_map
      (fun line ->
        if not (is_record line) then [ line ]
        else begin
          incr i;
          if !i = forced || Rng.bernoulli rng p then [ line; line ] else [ line ]
        end)
      lines
  end

(* --- binary checkpoint faults -----------------------------------------

   These operate on raw bytes framed as in [Checkpoint]: a magic line,
   a binary payload, and an 8-hex-char CRC-32 trailer. Trace-level line
   plumbing would mangle the payload, so they bypass it entirely. *)

let payload_start text =
  match String.index_opt text '\n' with Some i -> i + 1 | None -> 0

let ckpt_truncate frac text =
  let keep = max 1 (int_of_float (frac *. float_of_int (String.length text))) in
  String.sub text 0 (min keep (String.length text))

let ckpt_flip rng text =
  let start = payload_start text in
  if String.length text <= start then text
  else begin
    let pos = start + Rng.int rng (String.length text - start) in
    let b = Bytes.of_string text in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5A));
    Bytes.to_string b
  end

(* Corrupt the embedded fingerprint (the first 32-hex-char run of the
   payload) and recompute the CRC trailer so the file still passes its
   integrity check — simulating a checkpoint from other parameters. *)
let ckpt_stale rng text =
  let start = payload_start text in
  let len = String.length text in
  if len < start + 8 then ckpt_flip rng text
  else begin
    let header = String.sub text 0 start in
    let payload = Bytes.of_string (String.sub text start (len - start - 8)) in
    let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
    let run_at i =
      i + 32 <= Bytes.length payload
      && (let ok = ref true in
          for j = i to i + 31 do
            if not (is_hex (Bytes.get payload j)) then ok := false
          done;
          !ok)
    in
    let rec find i = if i + 32 > Bytes.length payload then None else if run_at i then Some i else find (i + 1) in
    match find 0 with
    | None -> ckpt_flip rng text
    | Some i ->
      let pos = i + Rng.int rng 32 in
      let old = Bytes.get payload pos in
      let replacement = if old = '0' then 'f' else '0' in
      Bytes.set payload pos replacement;
      let payload = Bytes.to_string payload in
      header ^ payload ^ Checkpoint.crc32_hex payload
  end

let apply ~seed fault text =
  let rng = Rng.create seed in
  match fault with
  | Ckpt_truncate frac -> ckpt_truncate frac text
  | Ckpt_flip -> ckpt_flip rng text
  | Ckpt_stale -> ckpt_stale rng text
  | _ ->
    let lines = split_lines text in
    let lines =
      match fault with
      | Truncate frac -> truncate frac lines
      | Mangle p -> mangle rng p lines
      | Nan_times p -> nan_times rng p lines
      | Self_loop p -> self_loop rng p lines
      | Negative_id p -> negative_id rng p lines
      | Window_lie -> window_lie lines
      | Reorder -> reorder rng lines
      | Duplicate p -> duplicate rng p lines
      | Ckpt_truncate _ | Ckpt_flip | Ckpt_stale -> assert false
    in
    unlines lines

(* --- shard faults ------------------------------------------------------

   Process-level faults for the multi-process shard layer. Unlike the
   text/binary faults above these are not transformations of bytes but
   *events in time*: at a deterministic point in a sharded run (measured
   in acknowledged per-source results, the only monotone clock every
   run shares), a chosen worker is killed, stopped, or has one wire
   frame corrupted. The schedule is pure data; [Omn_shard.Coord]
   interprets it. *)

type shard_fault =
  | Worker_kill
  | Worker_hang
  | Sock_corrupt
  | Net_partition
  | Net_slow
  | Net_dup
  | Auth_bad
  | Worker_join
  | Worker_leave

let shard_fault_name = function
  | Worker_kill -> "worker-kill"
  | Worker_hang -> "worker-hang"
  | Sock_corrupt -> "sock-corrupt"
  | Net_partition -> "net-partition"
  | Net_slow -> "net-slow"
  | Net_dup -> "net-dup"
  | Auth_bad -> "auth-bad"
  | Worker_join -> "worker-join"
  | Worker_leave -> "worker-leave"

let all_shard_faults =
  [
    Worker_kill; Worker_hang; Sock_corrupt; Net_partition; Net_slow; Net_dup;
    Auth_bad; Worker_join; Worker_leave;
  ]
let shard_fault_names = List.map shard_fault_name all_shard_faults

let shard_fault_of_name s =
  List.find_opt (fun f -> shard_fault_name f = String.lowercase_ascii s) all_shard_faults

type shard_event = { after_results : int; victim : int; shard_fault : shard_fault }

let pp_shard_event ppf e =
  Format.fprintf ppf "%s worker %d after %d result(s)" (shard_fault_name e.shard_fault) e.victim
    e.after_results

let corpus ?(seed = 1) text =
  [
    Truncate 0.5; Mangle 0.25; Nan_times 0.25; Self_loop 0.25; Negative_id 0.25;
    Window_lie;
  ]
  |> List.map (fun f -> (name f, apply ~seed f text))
