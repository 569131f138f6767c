module Contact = Omn_temporal.Contact
module Trace = Omn_temporal.Trace

(* Two-phase out-of-core sort. Generators emit contacts pair by pair —
   nowhere near time order — so [add] appends each contact to the spill
   of the shard whose time slice holds its [t_beg], as one 32-byte
   record written from [record]: [a], [b] and the bits of [t_beg] and
   [t_end], each a little-endian int64. The bits round-trip exactly, so
   [finish] rebuilds each shard's contacts as they were added, and
   [Trace.of_builder_result] sorts them as [Array.sort] on the records
   would, -0/+0 ties included. *)

type t = {
  path : string;  (* index path; shard i = path ^ ".%04d" *)
  name : string;
  n_nodes : int;
  t_start : float;
  t_end : float;
  spills : out_channel array;
  record : Bytes.t;  (* the spill record being written *)
  mutable added : int;
  mutable finished : bool;
}

let record_bytes = 32

(* [path.NNNN]: [i] is below 4096, so four digits *)
let numbered path i =
  let digits = string_of_int i in
  path ^ "." ^ String.make (4 - String.length digits) '0' ^ digits

let shard_file = numbered
let spill_file path i = numbered (path ^ ".spill") i

(* Close and remove the first [n] spills. *)
let remove_spills path spills n =
  for i = 0 to n - 1 do
    close_out_noerr spills.(i);
    try Sys.remove (spill_file path i) with Sys_error _ -> ()
  done

let create ?(shards = 16) ~name ~n_nodes ~t_start ~t_end path =
  if shards < 1 || shards > 4096 then invalid_arg "Shard_sink.create: shards out of [1, 4096]";
  if n_nodes < 0 then invalid_arg "Shard_sink.create: n_nodes < 0";
  if not (Float.is_finite t_start && Float.is_finite t_end) then
    invalid_arg "Shard_sink.create: non-finite window";
  if t_start > t_end then invalid_arg "Shard_sink.create: reversed window";
  (* [stdout] holds the slots not opened yet; only the first [!opened]
     are ever closed *)
  let spills = Array.make shards stdout and opened = ref 0 in
  (try
     while !opened < shards do
       spills.(!opened) <- open_out_bin (spill_file path !opened);
       incr opened
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     remove_spills path spills !opened;
     Printexc.raise_with_backtrace e bt);
  {
    path;
    name;
    n_nodes;
    t_start;
    t_end;
    spills;
    record = Bytes.create record_bytes;
    added = 0;
    finished = false;
  }

let bucket t t_beg =
  let shards = Array.length t.spills in
  let span = t.t_end -. t.t_start in
  if span <= 0. then 0
  else
    let k = int_of_float (float_of_int shards *. ((t_beg -. t.t_start) /. span)) in
    max 0 (min (shards - 1) k)

let add t (c : Contact.t) =
  if t.finished then invalid_arg "Shard_sink.add: finished";
  if c.a < 0 || c.a >= t.n_nodes || c.b < 0 || c.b >= t.n_nodes then
    invalid_arg
      ("Shard_sink.add: node id out of range (n_nodes = " ^ string_of_int t.n_nodes ^ ")");
  if c.t_beg < t.t_start || c.t_end > t.t_end then begin
    let g = Float.to_string in
    invalid_arg
      ("Shard_sink.add: contact [" ^ g c.t_beg ^ "; " ^ g c.t_end ^ "] outside window ["
     ^ g t.t_start ^ "; " ^ g t.t_end ^ "]")
  end;
  let r = t.record in
  Bytes.set_int64_le r 0 (Int64.of_int c.a);
  Bytes.set_int64_le r 8 (Int64.of_int c.b);
  Bytes.set_int64_le r 16 (Int64.bits_of_float c.t_beg);
  Bytes.set_int64_le r 24 (Int64.bits_of_float c.t_end);
  output t.spills.(bucket t c.t_beg) r 0 record_bytes;
  t.added <- t.added + 1

let contacts_written t = t.added

(* A spill's records, in the order they were added, read in chunks of
   [chunk] records. *)
let read_spill file =
  In_channel.with_open_bin file @@ fun ic ->
  let len = Int64.to_int (In_channel.length ic) in
  if len mod record_bytes <> 0 then failwith ("Shard_sink: torn spill file " ^ file);
  let n = len / record_bytes and chunk = 2048 in
  let buf = Trace.Builder.create n and bytes = Bytes.create (chunk * record_bytes) in
  let rec from i =
    if i < n then begin
      let k = min chunk (n - i) in
      really_input ic bytes 0 (k * record_bytes);
      for j = 0 to k - 1 do
        let o = j * record_bytes in
        Trace.Builder.add buf
          ~a:(Int64.to_int (Bytes.get_int64_le bytes o))
          ~b:(Int64.to_int (Bytes.get_int64_le bytes (o + 8)))
          ~t_beg:(Int64.float_of_bits (Bytes.get_int64_le bytes (o + 16)))
          ~t_end:(Int64.float_of_bits (Bytes.get_int64_le bytes (o + 24)))
      done;
      from (i + k)
    end
  in
  from 0;
  buf

let cleanup_spills t = remove_spills t.path t.spills (Array.length t.spills)

let abort t =
  if not t.finished then begin
    t.finished <- true;
    cleanup_spills t
  end

let finish t =
  if t.finished then invalid_arg "Shard_sink.finish: finished";
  t.finished <- true;
  let files = ref [] in
  Fun.protect
    ~finally:(fun () -> cleanup_spills t)
    (fun () ->
      Array.iter close_out t.spills;
      for i = 0 to Array.length t.spills - 1 do
        let shard =
          match
            Trace.of_builder_result ~name:t.name ~n_nodes:t.n_nodes ~t_start:t.t_start
              ~t_end:t.t_end
              (read_spill (spill_file t.path i))
          with
          | Ok shard -> shard
          | Error e -> failwith (Omn_robust.Err.to_string e)
        in
        let file = shard_file t.path i in
        Omn_temporal.Trace_io.save shard file;
        files := Filename.basename file :: !files
      done);
  Omn_robust.Retry_io.write t.path (fun oc ->
    output_string oc "# omn-shards 1\n# name ";
    output_string oc t.name;
    output_char oc '\n';
    List.iter
      (fun f ->
        output_string oc f;
        output_char oc '\n')
      (List.rev !files))
