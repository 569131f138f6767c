type code =
  | Parse
  | Header
  | Contact
  | Window
  | Range
  | Io
  | Checkpoint
  | Usage
  | Compute
  | Auth
  | Proto

type t = { code : code; msg : string; file : string option; line : int option }

exception Error of t

let v ?file ?line code msg = { code; msg; file; line }
let errf ?file ?line code fmt = Format.kasprintf (fun msg -> v ?file ?line code msg) fmt

let code_name = function
  | Parse -> "E-PARSE"
  | Header -> "E-HEADER"
  | Contact -> "E-CONTACT"
  | Window -> "E-WINDOW"
  | Range -> "E-RANGE"
  | Io -> "E-IO"
  | Checkpoint -> "E-CHECKPOINT"
  | Usage -> "E-USAGE"
  | Compute -> "E-COMPUTE"
  | Auth -> "E-AUTH"
  | Proto -> "E-PROTO"

let exit_code = function Compute -> 1 | _ -> 2
let in_file file e = match e.file with Some _ -> e | None -> { e with file = Some file }

let pp fmt e =
  (match e.file with Some f -> Format.fprintf fmt "%s: " f | None -> ());
  (match e.line with Some l -> Format.fprintf fmt "line %d: " l | None -> ());
  Format.fprintf fmt "[%s] %s" (code_name e.code) e.msg

let to_string e = Format.asprintf "%a" pp e
let error ?file ?line code msg = Result.Error (v ?file ?line code msg)

let errorf ?file ?line code fmt =
  Format.kasprintf (fun msg -> Result.Error (v ?file ?line code msg)) fmt

let get_exn = function Ok x -> x | Result.Error e -> raise (Error e)

let protect f =
  match f () with
  | x -> Ok x
  | exception Error e -> Result.Error e
  | exception Failure msg -> error Compute msg
  | exception Invalid_argument msg -> error Usage msg
  | exception Sys_error msg -> error Io msg

module Syntax = struct
  let ( let* ) r f = Result.bind r f
  let ( let+ ) r f = Result.map f r
end
