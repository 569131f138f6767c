module Err = Omn_robust.Err

(* --- writing --- *)

(* The one formatter of the text format. It hands the text to [flush]
   in order, in pieces of about 64 KiB, so [output] writes in bounded
   memory and [to_string] concatenates the pieces. *)
let write flush trace =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# omn-trace 1\n# name %s\n# nodes %d\n# window %.17g %.17g\n"
    (Trace.name trace) (Trace.n_nodes trace) (Trace.t_start trace) (Trace.t_end trace);
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  for i = 0 to Array.length csr_a - 1 do
    Printf.bprintf buf "%d %d %.17g %.17g\n" csr_a.(i) csr_b.(i) csr_beg.(i) csr_end.(i);
    if Buffer.length buf >= 65536 then begin
      flush buf;
      Buffer.clear buf
    end
  done;
  flush buf

let output oc trace = write (Buffer.output_buffer oc) trace

let to_string trace =
  let text = Buffer.create 4096 in
  write (Buffer.add_buffer text) trace;
  Buffer.contents text

let save trace path = Omn_robust.Retry_io.write path (fun oc -> output oc trace)

(* --- reading --- *)

let parse ?policy ?file text = Trace_stream.parse_whole ?policy ?file text

let of_string s =
  match parse s with Ok (t, _) -> t | Error e -> failwith (Err.to_string e)

(* Reads go through [Retry_io]: a transient EINTR/EAGAIN (or injected
   fault) is retried with backoff before surfacing as a typed error. *)
let load_result ?policy path =
  match Omn_robust.Retry_io.read_to_string path with
  | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)
  | exception Omn_robust.Retry_io.Injected msg ->
    Error (Err.v ~file:path Err.Io ("injected fault: " ^ msg))
  | text -> parse ?policy ~file:path text

let load path =
  match load_result path with
  | Ok (t, _) -> t
  | Error { code = Err.Io; msg; _ } -> raise (Sys_error msg)
  | Error e -> failwith (Err.to_string e)
