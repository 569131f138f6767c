(** Transport abstraction for the shard fleet.

    The coordinator and workers exchange CRC-framed {!Frame} messages
    over a connected stream socket; this module is the only place that
    knows whether that stream is a same-host Unix-domain socket or a
    TCP connection to another machine. Addresses parse from the CLI
    (["/tmp/omn.sock"] vs ["host:port"]), listeners bind either family,
    and {!dial} retries with capped-exponential, deterministically
    jittered backoff so a flapping link degrades gracefully instead of
    hanging the caller. *)

type addr =
  | Unix_path of string  (** same-host Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val to_string : addr -> string
(** ["path"] or ["host:port"], parseable back by {!parse}. *)

val parse : string -> (addr, Omn_robust.Err.t) result
(** A string with a [':'] whose suffix is a valid port is {!Tcp};
    anything else is a {!Unix_path}. [E-USAGE] on an empty address,
    empty host or out-of-range port. *)

val set_deadline : Unix.file_descr -> float -> unit
(** Arm [SO_RCVTIMEO]/[SO_SNDTIMEO]: blocking reads and writes past
    the deadline fail with [EAGAIN], which {!Frame.read} reports as
    [`Timeout]. *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bind + listen (backlog default 16). TCP listeners set
    [SO_REUSEADDR]; [Tcp (host, 0)] lets the kernel pick a port (read
    it back with {!bound_addr}). Raises [Unix.Unix_error] on bind
    failure. *)

val bound_addr : Unix.file_descr -> addr -> addr
(** The address actually bound — resolves a kernel-assigned TCP port 0
    to the real one; Unix paths come back unchanged. *)

val dial :
  ?attempts:int ->
  ?backoff:float ->
  ?backoff_max:float ->
  ?seed:int ->
  ?connect_timeout:float ->
  addr ->
  (Unix.file_descr, Omn_robust.Err.t) result
(** Connect, retrying connection-shaped failures ([ENOENT],
    [ECONNREFUSED], [ETIMEDOUT], unreachable-network errors, ...) up
    to [attempts] times (default 100) with capped exponential backoff
    (base [backoff] = 0.05 s, cap [backoff_max] = 1 s) and
    deterministic jitter seeded by [(seed, addr)]. [connect_timeout]
    arms the socket deadline before connecting. A non-retriable or
    final failure is a typed [E-IO] error, never an exception. *)
