(** Typed errors for the whole pipeline.

    Every failure mode that can be triggered by user input — malformed
    trace files, contradictory headers, corrupt checkpoints, bad CLI
    flags — is described by a value of {!t} carrying an error {!code},
    an optional source location (file, line) and a human-readable
    message. Library code returns [('a, t) result]; the CLI boundary
    turns the code into a documented process exit status ({!exit_code}).
    A run that ends without an error exits 0, or 124 for a result the
    budget cut short. *)

type code =
  | Parse  (** a line or field could not be parsed at all *)
  | Header  (** malformed or contradictory trace header *)
  | Contact  (** invalid contact record: self-loop, NaN time, reversed interval *)
  | Window  (** a record falls outside the declared observation window *)
  | Range  (** node id out of the declared node range *)
  | Io  (** file-system problem *)
  | Checkpoint  (** corrupt or incompatible checkpoint file *)
  | Usage  (** bad command-line usage or parameter *)
  | Compute  (** a computation failed *)
  | Auth  (** shard authentication failure: wrong key, bad MAC, replayed nonce *)
  | Proto  (** shard protocol mismatch: incompatible version or build *)

type t = { code : code; msg : string; file : string option; line : int option }

exception Error of t
(** Raised at boundaries that cannot return a [result]. *)

val v : ?file:string -> ?line:int -> code -> string -> t

val errf :
  ?file:string -> ?line:int -> code -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [errf code fmt ...] builds an error with a formatted message. *)

val code_name : code -> string
(** Stable machine-readable name, e.g. ["E-PARSE"]. *)

val exit_code : code -> int
(** Documented process exit status for the CLI: 1 for computation
    errors ({!Compute}), 2 for bad input or usage (everything else).
    0 is success and never produced here. *)

val in_file : string -> t -> t
(** Attach a file name if the error does not carry one yet. *)

val pp : Format.formatter -> t -> unit
(** ["file: line N: [E-CODE] message"] (location parts optional). *)

val to_string : t -> string

val error : ?file:string -> ?line:int -> code -> string -> ('a, t) result

val errorf :
  ?file:string ->
  ?line:int ->
  code ->
  ('a, Format.formatter, unit, ('b, t) result) format4 ->
  'a

val get_exn : ('a, t) result -> 'a
(** [Ok x -> x]; [Error e -> raise (Error e)]. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting {!Error}, [Failure] ({!Compute}),
    [Invalid_argument] ({!Usage}) and [Sys_error] ({!Io}) to [Error _]. *)

module Syntax : sig
  val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result
  val ( let+ ) : ('a, t) result -> ('a -> 'b) -> ('b, t) result
end
