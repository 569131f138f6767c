(** Length-prefixed, CRC-framed messages over a stream socket.

    Wire layout of one frame:

    {v
    +----------------+---------+----------------+------------------+
    | length (4B BE) | version | payload bytes  | CRC-32 (8 hex)   |
    +----------------+---------+----------------+------------------+
    v}

    [length] counts everything after itself (version byte + payload +
    trailer). The CRC covers the payload only, so a flipped bit
    anywhere in the payload is detected; a mangled length or version is
    rejected by the sanity checks. A frame that fails any check makes
    the {e connection} unusable (stream framing is lost), so readers
    return [`Corrupt] and the caller must drop the peer — exactly the
    semantics the shard coordinator's failover needs. *)

val version : char
(** Wire protocol version, currently ['\001']. A reader rejects frames
    from any other version as [`Corrupt]. *)

val write : Unix.file_descr -> string -> unit
(** Send one frame, handling partial writes. Raises [Unix.Unix_error]
    (e.g. [EPIPE] on a dead peer — callers must have [SIGPIPE]
    ignored). *)

val read :
  ?mangle:bool -> Unix.file_descr -> (string, [ `Eof | `Corrupt | `Timeout ]) result
(** Read one frame. [`Eof] is a clean close (zero bytes at a frame
    boundary); a short read mid-frame, a bad version, an oversized
    length or a CRC mismatch are [`Corrupt]; [`Timeout] surfaces
    [EAGAIN]/[EWOULDBLOCK] from an [SO_RCVTIMEO]-armed descriptor (so
    a stalled peer cannot hang the caller forever). [mangle] flips one
    payload byte after reading and before the CRC check — the
    [sock-corrupt] chaos fault, deterministic and test-only. *)
