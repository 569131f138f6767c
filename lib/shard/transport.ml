(* Byte-stream transport under the shard protocol: Unix-domain for
   same-host fleets, TCP for multi-machine. Both yield a connected
   [Unix.file_descr] that Frame/Proto treat identically; everything
   address-shaped lives here so Coord/Worker stay transport-neutral. *)

module Err = Omn_robust.Err

type addr = Unix_path of string | Tcp of string * int

let to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* "host:port" (last ':' splits, so a path with no ':' is unambiguous)
   vs a filesystem path. A bare path never contains ':' in practice;
   anything with a ':' whose suffix parses as a port is TCP. *)
let parse s =
  if String.equal s "" then Err.error Usage "transport: empty address"
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Unix_path s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
        if String.equal host "" then
          Err.errorf Usage "transport: missing host in %S" s
        else Ok (Tcp (host, p))
      | _ -> Err.errorf Usage "transport: bad port in %S" s)

let resolve host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ | (exception Not_found) ->
      raise (Err.Error (Err.errf Io "transport: cannot resolve host %S" host)))

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (h, p) -> Unix.ADDR_INET (resolve h, p)

let socket_for = function
  | Unix_path _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Tcp _ ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd

let set_deadline fd seconds =
  (* Unix-domain sockets honour SO_RCVTIMEO/SO_SNDTIMEO the same way;
     a blocking read/write past the deadline fails with EAGAIN, which
     Frame maps to `Timeout. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds

let listen ?(backlog = 16) addr =
  let fd = socket_for addr in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  (try Unix.bind fd (sockaddr addr)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd backlog;
  fd

let bound_addr fd addr =
  (* With [Tcp (_, 0)] the kernel picks the port; report the real one. *)
  match (addr, Unix.getsockname fd) with
  | Tcp (h, _), Unix.ADDR_INET (_, p) -> Tcp (h, p)
  | a, _ -> a

(* Capped-exponential dial with deterministic jitter: a flapping link
   is retried on a fixed schedule instead of hammered or hung on. *)
let dial ?(attempts = 100) ?(backoff = 0.05) ?(backoff_max = 1.0) ?(seed = 0)
    ?connect_timeout addr =
  let rng = Omn_stats.Rng.create (seed lxor Hashtbl.hash (to_string addr)) in
  let retriable = function
    | Unix.Unix_error
        ( ( Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT
          | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN | Unix.EINTR ),
          _,
          _ ) ->
      true
    | _ -> false
  in
  let attempt () =
    let fd = socket_for addr in
    (match connect_timeout with Some s -> set_deadline fd s | None -> ());
    try
      Unix.connect fd (sockaddr addr);
      fd
    with e ->
      Unix.close fd;
      raise e
  in
  let rec go k =
    match attempt () with
    | fd -> Ok fd
    | exception Err.Error e -> Error e
    | exception e when retriable e && k + 1 < attempts ->
      let base = Float.min backoff_max (backoff *. (2. ** float_of_int k)) in
      Unix.sleepf (base *. (0.5 +. (0.5 *. Omn_stats.Rng.float rng)));
      go (k + 1)
    | exception e ->
      Error
        (Err.errf Io "transport: cannot connect to %s: %s" (to_string addr)
           (Printexc.to_string e))
  in
  go 0
