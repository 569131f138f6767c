module Err = Omn_robust.Err

(* --- writing --- *)

(* The conversion [Printf] ends in for a float: [Printf.sprintf
   "%.17g" x] is [format_float "%.17g" x], less the interpretation of
   the format. *)
external format_float : string -> float -> string = "caml_format_float"

(* The one writer of the text format. It fills a buffer and hands the
   filled prefix to [flush] whenever fewer than [record_max] bytes are
   left, so [output] writes in bounded memory and [to_string]
   concatenates the pieces. The bytes are those of [Printf]'s
   ["%d %d %.17g %.17g\n"] per record, but no record goes through
   [Printf]: ids are written by a digit loop, and so is every time that
   is an integer of magnitude below 10^15, other than -0. [%.17g] prints
   such a time as exactly those digits: it has at most 15 significant
   digits and a decimal exponent below 17, so it is printed in fixed
   notation, and its fraction is all zeros, which [%g] drops with the
   point. Every other time goes to [format_float "%.17g"]. *)
type out = { bytes : Bytes.t; mutable pos : int; flush : Bytes.t -> int -> unit }

(* The longest record: two 19-digit ids, two 24-byte times ("-" and
   17 digits, the point and "e-308"), three blanks and a newline. *)
let record_max = 96

let drain o =
  o.flush o.bytes o.pos;
  o.pos <- 0

let put_string o s =
  let rec from i =
    let k = min (String.length s - i) (Bytes.length o.bytes - o.pos) in
    Bytes.blit_string s i o.bytes o.pos k;
    o.pos <- o.pos + k;
    if i + k < String.length s then begin
      drain o;
      from (i + k)
    end
  in
  from 0

(* The unchecked writes below are safe because the caller made room:
   at least [record_max] bytes are left in [o.bytes]. *)
let put_char o c =
  Bytes.unsafe_set o.bytes o.pos c;
  o.pos <- o.pos + 1

let rec width n w = if n < 10 then w else width (n / 10) (w + 1)

let rec digits bytes n i =
  Bytes.unsafe_set bytes i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then digits bytes (n / 10) (i - 1)

(* [n >= 0]. *)
let put_nat o n =
  let w = width n 1 in
  digits o.bytes n (o.pos + w - 1);
  o.pos <- o.pos + w

let put_time o x =
  let i = Float.to_int x in
  if Float.abs x < 1e15 && Float.of_int i = x && (i <> 0 || not (Float.sign_bit x)) then begin
    if i < 0 then begin
      put_char o '-';
      put_nat o (-i)
    end
    else put_nat o i
  end
  else put_string o (format_float "%.17g" x)

let room o = if o.pos > Bytes.length o.bytes - record_max then drain o

let write flush trace =
  (* 64 KiB, less for a small trace: tests render thousands of those *)
  let size = min 65536 (record_max * (Trace.n_contacts trace + 8)) in
  let o = { bytes = Bytes.create size; pos = 0; flush } in
  put_string o "# omn-trace 1\n# name ";
  put_string o (Trace.name trace);
  room o;
  put_string o "\n# nodes ";
  put_nat o (Trace.n_nodes trace);
  put_string o "\n# window ";
  put_time o (Trace.t_start trace);
  put_char o ' ';
  put_time o (Trace.t_end trace);
  put_char o '\n';
  let { Trace.csr_a; csr_b; csr_beg; csr_end; _ } = Trace.time_csr trace in
  for i = 0 to Array.length csr_a - 1 do
    room o;
    put_nat o csr_a.(i);
    put_char o ' ';
    put_nat o csr_b.(i);
    put_char o ' ';
    put_time o csr_beg.(i);
    put_char o ' ';
    put_time o csr_end.(i);
    put_char o '\n'
  done;
  drain o

let output oc trace = write (fun bytes len -> Stdlib.output oc bytes 0 len) trace

let to_string trace =
  let text = Buffer.create 4096 in
  write (fun bytes len -> Buffer.add_subbytes text bytes 0 len) trace;
  Buffer.contents text

let save trace path = Omn_robust.Retry_io.write path (fun oc -> output oc trace)

(* --- reading --- *)

let parse ?policy ?file text = Trace_stream.parse_whole ?policy ?file text

let of_string s =
  match parse s with Ok (t, _) -> t | Error e -> failwith (Err.to_string e)

(* Reads go through [Retry_io]: a transient EINTR/EAGAIN (or injected
   fault) is retried with backoff before surfacing as a typed error. *)
let load_result ?policy path =
  match Omn_robust.Retry_io.read_to_string path with
  | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)
  | exception Omn_robust.Retry_io.Injected msg ->
    Error (Err.v ~file:path Err.Io ("injected fault: " ^ msg))
  | text -> parse ?policy ~file:path text

let load path =
  match load_result path with
  | Ok (t, _) -> t
  | Error { code = Err.Io; msg; _ } -> raise (Sys_error msg)
  | Error e -> failwith (Err.to_string e)
