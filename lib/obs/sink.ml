type t =
  | Null
  | File of string
  | Channel of out_channel

let null = Null
let file path = File path
let channel oc = Channel oc

let render snap = Json.to_string ~pretty:true (Metrics.snapshot_to_json snap) ^ "\n"

let write sink snap =
  match sink with
  | Null -> ()
  | Channel oc ->
    output_string oc (render snap);
    flush oc
  | File path -> Omn_robust.Retry_io.write_string path (render snap)

let emit ?reg sink = write sink (Metrics.snapshot ?reg ())
