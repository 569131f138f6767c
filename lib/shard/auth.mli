(** The opening handshake of every shard connection: version and build
    check always, pre-shared-key HMAC-SHA-256 authentication with a
    key.

    [Proto] messages are Marshal-encoded, which is only safe between
    peers of one protocol version and one runtime, so every connection
    opens with a check of both, keyed or not. Without a key (the
    Unix-domain default), dialer and listener exchange one hello frame
    each over {!Frame}, naming their protocol version and build.
    Multi-machine fleets listen on TCP, so a connection is no longer
    implicitly trusted the way a same-user Unix-domain socket is. When
    both ends are configured with a key, the dialer and listener run a
    three-message challenge–response instead: mutual proof of key
    possession via HMAC-SHA-256 over a transcript binding both
    protocol versions, build identifiers and nonces. A wrong key, a
    replayed client nonce, a keyed dialer at a key-less listener or
    the reverse, or a protocol/build mismatch is a typed [E-AUTH] /
    [E-PROTO] error on {e both} sides (the rejecting side ships the
    verdict in a final frame before closing) — never a crash, a hang,
    or a silent accept. A peer older than protocol 5 sends no hello:
    the newer side then refuses its first [Proto] frame with [E-PROTO],
    or sees the older one close the link or let it time out. *)

val protocol_version : int
(** Version of the handshake plus the [Proto] message set behind it;
    peers with different values are rejected with [E-PROTO]. *)

val default_build : string
(** Build identifier exchanged in the handshake, derived from the
    compiler version — [Marshal]-encoded messages are only safe
    between identical runtimes, so a mismatch is refused up front. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (hex, 64 chars) of a message under a key. Exposed for
    tests. *)

type state
(** Listener-side handshake state: the set of client nonces already
    accepted, consulted for replay rejection. One per listener. *)

val state : unit -> state

val client :
  ?build:string -> ?key:string -> Unix.file_descr -> (unit, Omn_robust.Err.t) result
(** Run the dialer side of the handshake on a fresh connection, before
    any [Proto] traffic: the hello exchange without [key], the HMAC
    challenge–response with it. [build] defaults to {!default_build}. *)

val server :
  ?build:string ->
  state:state ->
  ?key:string ->
  Unix.file_descr ->
  (unit, Omn_robust.Err.t) result
(** Run the listener side on an accepted connection. On [Error] the
    caller must drop the connection (a rejection frame has already
    been sent best-effort). *)
