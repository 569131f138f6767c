let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

let prev_path path = path ^ ".prev"

let decode ~magic ~path data =
  let mlen = String.length magic in
  let len = String.length data in
  if len < mlen + 8 || String.sub data 0 mlen <> magic then
    Error (Err.v ~file:path Err.Checkpoint "not an omn checkpoint file")
  else begin
    let payload = String.sub data mlen (len - mlen - 8) in
    let trailer = String.sub data (len - 8) 8 in
    if crc32_hex payload <> trailer then
      Error (Err.v ~file:path Err.Checkpoint "CRC-32 mismatch (truncated or corrupt)")
    else Ok payload
  end

(* Observability hook: invoked after a current generation is promoted
   to .prev. This library sits below the metrics/timeline registry in
   the dependency order, so the journal is wired in from above (see
   Omn_core.Driver), mirroring Retry_io.on_retry. *)
let on_rotate : (path:string -> unit) ref = ref (fun ~path:_ -> ())

(* Promote the current generation only if it still decodes — rotating a
   corrupt file over a good .prev would destroy the last recovery
   point. *)
let rotate ~magic path =
  if Sys.file_exists path then begin
    let ok =
      match Atomic_file.read_to_string path with
      | exception Sys_error _ -> false
      | data -> Result.is_ok (decode ~magic ~path data)
    in
    try
      if ok then begin
        Sys.rename path (prev_path path);
        !on_rotate ~path
      end
      else Sys.remove path
    with Sys_error _ -> ()
  end

let save ~magic ~path payload =
  rotate ~magic path;
  Retry_io.write path (fun oc ->
      output_string oc magic;
      output_string oc payload;
      output_string oc (crc32_hex payload))

type generation = Current | Previous

let load ~magic ~validate path =
  let read p =
    match Retry_io.read_to_string p with
    | exception Sys_error msg -> Error (Err.v ~file:p Err.Io msg)
    | data -> Result.bind (decode ~magic ~path:p data) validate
  in
  match read path with
  | Ok v -> Ok (v, Current)
  | Error current_err -> (
    let prev = prev_path path in
    if not (Sys.file_exists prev) then Error current_err
    else match read prev with Ok v -> Ok (v, Previous) | Error _ -> Error current_err)

let manifest_path path = path ^ ".manifest.json"

let remove path =
  List.iter
    (fun p -> if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
    [ path; prev_path path; manifest_path path ]
