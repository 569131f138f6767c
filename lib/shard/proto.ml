type job = {
  trace_digest : string;
  worker : int;
  max_hops : int;
  dests : int list option;
  grid : float array option;
  windows : (float * float) list option;
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
  | Ready of { worker : int }
  | Result of { slot : int; source : int; partial : string }
  | Failed of { slot : int; source : int; reason : string }
  | Stats_push of {
      worker : int;
      t_coord : float;
      t_worker : float;
      metrics : Omn_obs.Metrics.snapshot;
      events : (int * Omn_obs.Timeline.entry) list;
      dropped : (int * int) list;
    }
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
