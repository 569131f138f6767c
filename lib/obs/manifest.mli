(** Run provenance manifests.

    Every result, metrics, bench and checkpoint-sidecar JSON the toolkit
    writes is stamped with the facts needed to reproduce (or distrust)
    it: the exact command line, the configuration knobs, the RNG seed,
    a SHA-256 of the input file plus the trace's node/contact counts,
    the toolkit and compiler versions (with [git describe] when the
    binary runs inside a checkout), the domain count, the host, and the
    run's wall-clock window. DTN results are notoriously sensitive to dataset
    and configuration provenance; the manifest makes both part of the
    artifact itself.

    Manifests are data, not behaviour: stamping one never changes a
    computed result, and two runs of the same command differ only in
    the [started]/[finished]/[hostname]/[git] fields. *)

type t = {
  schema_version : string;  (** {!schema} *)
  cmdline : string list;  (** [Sys.argv] verbatim *)
  config : (string * Json.t) list;  (** command-specific knobs *)
  seed : int option;
  trace_sha256 : string option;
      (** digest of the bytes of the input file named on the command
          line, or of the canonical serialisation of a trace the bench
          synthesised. For a [# omn-shards 1] index those are the
          index's bytes: they fix the shards' names and order, not the
          shards' contents. *)
  trace_name : string option;
  n_nodes : int option;
  n_contacts : int option;
  omn_version : string;
  git_describe : string option;  (** [None] outside a git checkout *)
  ocaml_version : string;
  domains : int option;
  workers : int option;  (** sharded runs: worker-process count *)
  hostname : string;
  started : float;  (** Unix epoch seconds *)
  finished : float option;
}

val schema : string
(** ["omn-manifest 1"]. *)

val create :
  ?config:(string * Json.t) list ->
  ?seed:int ->
  ?trace_sha256:string ->
  ?trace_name:string ->
  ?n_nodes:int ->
  ?n_contacts:int ->
  ?domains:int ->
  ?workers:int ->
  ?cmdline:string list ->
  version:string ->
  unit ->
  t
(** Stamp [started], the hostname and the toolchain versions now.
    [cmdline] defaults to [Sys.argv]. *)

val finish : t -> t
(** Stamp [finished] (idempotent: an already-finished manifest is
    returned unchanged). *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json m) = Ok m]. Members are
    read by name and unknown ones ignored, so a manifest that still
    carries a member this version no longer writes (an older sharded
    run's placement digest) loads. *)

val git_describe : unit -> string option
(** Best-effort [git describe --always --dirty] of the current
    directory; [None] when git or the checkout is unavailable. Cached
    after the first call. *)
