type job = {
  trace_digest : string;
  worker : int;
  max_hops : int;
  dests : int list option;
  grid : float array option;
  windows : (float * float) list option;
  supervise : Omn_parallel.Supervise.policy option;
  ckpt_path : string option;
  fingerprint : string;
  domains : int;
  telemetry : bool;
}

type to_worker =
  | Job of job
  | Trace_data of { digest : string; text : string }
  | Compute of { slot : int; source : int }
  | Stats_pull of { t_coord : float }
  | Ping
  | Shutdown

type from_worker =
  | Hello of { worker : int }
  | Need_trace of { digest : string }
  | Ready of { worker : int; resumed : int }
  | Result of { slot : int; source : int; partial : string }
  | Failed of { slot : int; source : int; attempts : int; reason : string }
  | Stats_push of {
      worker : int;
      t_coord : float;
      t_worker : float;
      metrics : Omn_obs.Metrics.snapshot;
      events : (int * Omn_obs.Timeline.entry) list;
      dropped : (int * int) list;
    }
  | Leave of { worker : int }
  | Pong

let encode_to_worker (m : to_worker) = Marshal.to_string m []
let encode_from_worker (m : from_worker) = Marshal.to_string m []

(* A CRC-valid frame can still carry bytes that are not a Marshalled
   value of the expected type (a confused or malicious peer); Marshal
   can raise anything from Failure to segfault-adjacent Invalid_argument
   on truncated headers, so decoding catches every exception and
   returns a typed error — the fuzz suite pins this. *)
let decode_to_worker s : (to_worker, string) result =
  try Ok (Marshal.from_string s 0)
  with e -> Error ("shard: undecodable message: " ^ Printexc.to_string e)

let decode_from_worker s : (from_worker, string) result =
  try Ok (Marshal.from_string s 0)
  with e -> Error ("shard: undecodable message: " ^ Printexc.to_string e)

let job_fingerprint ~trace_text ~max_hops ~dests ~grid ~windows =
  let b = Buffer.create (String.length trace_text + 256) in
  Buffer.add_string b trace_text;
  Buffer.add_string b (Printf.sprintf "|max_hops=%d" max_hops);
  (match dests with
  | None -> Buffer.add_string b "|dests=all"
  | Some ds -> List.iter (fun d -> Buffer.add_string b (Printf.sprintf "|d%d" d)) ds);
  (match grid with
  | None -> Buffer.add_string b "|grid=default"
  | Some g -> Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "|g%.17g" v)) g);
  (match windows with
  | None -> Buffer.add_string b "|windows=full"
  | Some ws ->
    List.iter (fun (a, z) -> Buffer.add_string b (Printf.sprintf "|w%.17g,%.17g" a z)) ws);
  Omn_obs.Sha256.string (Buffer.contents b)
