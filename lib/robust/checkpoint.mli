(** Integrity-checked, generation-rotated checkpoint files.

    Framing: [magic ^ payload ^ crc], where [crc] is the 8-lowercase-hex
    CRC-32 (IEEE) of the payload — a flipped bit or a truncated tail is
    detected on load, instead of being unmarshalled into garbage.

    Rotation: {!save} first promotes the existing file to
    [path ^ ".prev"] (only when it still passes its own CRC — a corrupt
    current generation is deleted, never promoted), then writes the new
    generation through {!Atomic_file} + {!Retry_io}. A reader therefore
    always finds at most two generations:
    {v
        save #k:    path       <- state after chunk k     (current)
                    path.prev  <- state after chunk k-1   (previous)
    v}
    {!load} validates the current generation and falls back to the
    previous one when the current is corrupt, truncated, missing, or
    rejected by the caller's [validate] — losing at most one
    generation of work instead of the whole run. *)

val crc32_hex : string -> string
(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) as 8 lowercase
    hex characters — the trailer format. *)

val prev_path : string -> string
(** [path ^ ".prev"], the previous-generation file of [path]. *)

val manifest_path : string -> string
(** [path ^ ".manifest.json"], the provenance sidecar drivers write
    next to a checkpoint. This module never writes it, but {!remove}
    deletes it along with the generations. *)

val on_rotate : (path:string -> unit) ref
(** Called after the current generation of [path] is promoted to
    [.prev] during {!save}. Defaults to a no-op; the observability
    layer (which this library cannot depend on) hooks its event journal
    in here, exactly like {!Retry_io.on_retry}. *)

val decode : magic:string -> path:string -> string -> (string, Err.t) result
(** Strip and verify the framing of raw file bytes: magic prefix, CRC
    trailer. Returns the payload, or a typed [Checkpoint] error
    ([path] is used only for error locations). *)

val save : magic:string -> path:string -> string -> unit
(** Rotate, then atomically write [magic ^ payload ^ crc] to [path].
    Raises [Sys_error] on unrecoverable I/O failure (transient failures
    are retried, see {!Retry_io}). *)

type generation = Current | Previous

val load :
  magic:string ->
  validate:(string -> ('a, Err.t) result) ->
  string ->
  ('a * generation, Err.t) result
(** Decode and [validate] the current generation; on any failure try
    the previous one. When both fail, the {e current} generation's
    error is returned (it is the one the caller acted on last). The
    returned {!generation} tells the caller whether it is running on
    fallback state — report it. *)

val remove : string -> unit
(** Delete both generations of [path] and its manifest sidecar,
    ignoring I/O errors. *)
