module Err = Omn_robust.Err
module Repair = Omn_robust.Repair

(* Cumulative ingestion tallies over every successful parse, in-memory
   ([Trace_io]) and streaming alike. *)
let m_lines = Omn_obs.Metrics.counter "ingest.lines_read"
let m_kept = Omn_obs.Metrics.counter "ingest.contacts_kept"
let m_repaired = Omn_obs.Metrics.counter "ingest.lines_repaired"
let m_dropped = Omn_obs.Metrics.counter "ingest.lines_dropped"

let shard_magic = "# omn-shards 1"
let chunk = 64 * 1024

(* The records that passed the line checks, held flat by the in-memory
   reader until EOF: the first [len] slots, in file order. A line holds
   at most one record, so the text's line count sizes the arrays once
   (the streaming reader holds none). *)
type held = {
  mutable len : int;
  ln : int array;
  a : int array;
  b : int array;
  t_beg : float array;
  t_end : float array;
}

let make_held cap =
  {
    len = 0;
    ln = Array.make cap 0;
    a = Array.make cap 0;
    b = Array.make cap 0;
    t_beg = Array.make cap 0.;
    t_end = Array.make cap 0.;
  }

(* One parser for both readers. Lines are checked as they arrive (fields,
   contact sanity, headers); a record that passes goes through the
   record stage ([record]: window, range, duplicates). The policies are
   defined over the whole file, so every whole-file decision is carried
   as deferred state and resolved at EOF:
   - strict window/range violations are *deferred*, not raised, because
     a line error anywhere in the file outranks them;
   - [Repair]'s [Widened_node_count] needs the final max node id, so
     only the first violator's line is remembered;
   - events are kept in four per-stage lists (line, window, range,
     duplicates) and concatenated in that order before the final stable
     sort by line, so same-line events tie-break by stage.
   The entry point fixes when records reach the record stage:
   - streaming ([ordered]): at once, so the records are never held.
     Records must be non-decreasing in [t_beg] (a typed [Contact] error
     otherwise, under every policy), which keeps duplicates contiguous
     in equal-[t_beg] runs, so the duplicate table is per run; and a
     [nodes] / [window] header after a record cannot be honoured;
   - in-memory ([parse_whole]): held until EOF, then drained in file
     order with one duplicate table for the whole file, so headers are
     last-wins and records may come in any order ([Trace.create]
     sorts). Draining in start order instead would change which of two
     clamped duplicates is kept and which violator is reported first. *)
type state = {
  policy : Repair.policy;
  strict : bool;
  ordered : bool;  (* streaming; the in-memory reader holds records *)
  mutable file : string option;  (* current file, for error locations *)
  mutable carry : string;  (* partial last line of the previous chunk *)
  mutable lineno : int;
  mutable n_lines : int;  (* non-blank *)
  mutable h_name : string option;
  mutable h_nodes : (int * int) option;  (* value, line *)
  mutable h_window : (float * float * int) option;  (* lo, hi, line *)
  mutable saw_record : bool;  (* a record reached the record stage *)
  mutable held : held;  (* in-memory reader *)
  mutable pos : int;  (* the line scan: where the last field read ended *)
  mutable bad_field : bool;  (* a field of the current line did not convert *)
  (* per-stage event lists, newest first *)
  mutable ev_parse : Repair.event list;
  mutable ev_window : Repair.event list;
  mutable ev_range : Repair.event list;
  mutable ev_dup : Repair.event list;
  mutable strict_window : Err.t option;  (* first out-of-window record *)
  mutable strict_range : Err.t option;  (* first out-of-range record *)
  mutable widen_line : int;  (* first Repair range violator; -1 = none *)
  mutable max_node : int;  (* over records surviving the window check *)
  mutable last_beg : float;  (* streaming order check *)
  dedup : (int * int * float * float, unit) Hashtbl.t;
  mutable dedup_beg : float;  (* streaming: t_beg of the current duplicate run *)
  mutable kept : int;
  mutable min_beg : float;  (* window inference, over emitted records *)
  mutable max_end : float;
  buf : Trace.Builder.t;  (* the kept records, never boxed *)
}

let create ~policy ~ordered ~hold =
  {
    policy;
    strict = policy = Repair.Strict;
    ordered;
    file = None;
    carry = "";
    lineno = 0;
    n_lines = 0;
    h_name = None;
    h_nodes = None;
    h_window = None;
    saw_record = false;
    held = make_held hold;
    pos = 0;
    bad_field = false;
    ev_parse = [];
    ev_window = [];
    ev_range = [];
    ev_dup = [];
    strict_window = None;
    strict_range = None;
    widen_line = -1;
    max_node = -1;
    last_beg = neg_infinity;
    dedup = Hashtbl.create 64;
    dedup_beg = nan;
    kept = 0;
    min_beg = infinity;
    max_end = neg_infinity;
    buf = Trace.Builder.create 0;
  }

let err st ?line code fmt =
  Format.kasprintf (fun msg -> raise (Err.Error (Err.v ?file:st.file ?line code msg))) fmt

(* A [nodes] or [window] header after a record reached the record stage
   (streaming only): the old value is already applied, so a *different*
   late value cannot be honoured. An equal restatement (what
   concatenated [Shard_sink] shards produce) passes silently. *)
let late_header st lineno line =
  if st.strict then err st ~line:lineno Err.Header "conflicting header after contact records"
  else
    st.ev_parse <-
      { Repair.line = lineno; action = Repair.Ignored_header; detail = line } :: st.ev_parse

let handle_header st lineno line =
  let body = String.trim (String.sub line 1 (String.length line - 1)) in
  match String.split_on_char ' ' body with
  | "name" :: rest -> st.h_name <- Some (String.concat " " rest)
  | [ "nodes"; n ] -> (
    match int_of_string_opt n with
    | Some n ->
      if st.saw_record then begin
        match st.h_nodes with Some (n0, _) when n0 = n -> () | _ -> late_header st lineno line
      end
      else st.h_nodes <- Some (n, lineno)
    | None ->
      if st.strict then err st ~line:lineno Err.Header "bad node count %S" n
      else
        st.ev_parse <-
          { Repair.line = lineno; action = Repair.Ignored_header; detail = line } :: st.ev_parse)
  | [ "window"; a; b ] -> (
    let set lo hi =
      if st.saw_record then begin
        match st.h_window with
        | Some (l0, h0, _) when l0 = lo && h0 = hi -> ()
        | _ -> late_header st lineno line
      end
      else st.h_window <- Some (lo, hi, lineno)
    in
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some a, Some b when Float.is_finite a && Float.is_finite b ->
      if a <= b then set a b
      else begin
        match st.policy with
        | Repair.Strict -> err st ~line:lineno Err.Header "reversed window [%g; %g]" a b
        | Repair.Repair ->
          if not st.saw_record then
            st.ev_parse <-
              { Repair.line = lineno; action = Repair.Swapped_window; detail = line }
              :: st.ev_parse;
          set b a
        | Repair.Skip ->
          st.ev_parse <-
            { Repair.line = lineno; action = Repair.Ignored_header; detail = line }
            :: st.ev_parse
      end
    | _ ->
      if st.strict then err st ~line:lineno Err.Header "bad window"
      else
        st.ev_parse <-
          { Repair.line = lineno; action = Repair.Ignored_header; detail = line } :: st.ev_parse)
  | _ -> () (* free comment *)

(* One record that survived field- and contact-level checks, run
   through the window / order / range / duplicate pipeline. *)
let record st ln a b t_beg t_end =
  st.saw_record <- true;
  let keep, t_beg, t_end =
    match st.h_window with
    | None -> (true, t_beg, t_end)
    | Some (w0, w1, _) ->
      if t_beg >= w0 && t_end <= w1 then (true, t_beg, t_end)
      else begin
        match st.policy with
        | Repair.Strict ->
          if st.strict_window = None then
            st.strict_window <-
              Some
                (Err.v ?file:st.file ~line:ln Err.Window
                   (Format.asprintf "contact [%g; %g] outside declared window [%g; %g]" t_beg
                      t_end w0 w1));
          (false, t_beg, t_end)
        | Repair.Skip ->
          st.ev_window <-
            {
              Repair.line = ln;
              action = Repair.Dropped_out_of_window;
              detail = Printf.sprintf "[%g; %g] vs [%g; %g]" t_beg t_end w0 w1;
            }
            :: st.ev_window;
          (false, t_beg, t_end)
        | Repair.Repair ->
          if t_end < w0 || t_beg > w1 then begin
            st.ev_window <-
              {
                Repair.line = ln;
                action = Repair.Dropped_out_of_window;
                detail = Printf.sprintf "[%g; %g] vs [%g; %g]" t_beg t_end w0 w1;
              }
              :: st.ev_window;
            (false, t_beg, t_end)
          end
          else begin
            let nb = Float.max t_beg w0 and ne = Float.min t_end w1 in
            st.ev_window <-
              {
                Repair.line = ln;
                action = Repair.Clamped_to_window;
                detail = Printf.sprintf "[%g; %g] -> [%g; %g]" t_beg t_end nb ne;
              }
              :: st.ev_window;
            (true, nb, ne)
          end
      end
  in
  if keep then begin
    if st.ordered then begin
      if t_beg < st.last_beg then begin
        (* A pending strict window violation outranks the order error:
           the in-memory reader reports it for this input. *)
        (match st.strict_window with Some e -> raise (Err.Error e) | None -> ());
        err st ~line:ln Err.Contact
          "out-of-order contact: t_beg %g after %g (streaming requires time-ordered input)"
          t_beg st.last_beg
      end;
      st.last_beg <- t_beg
    end;
    if a > st.max_node then st.max_node <- a;
    if b > st.max_node then st.max_node <- b;
    let keep =
      match st.h_nodes with
      | Some (n, _) when n >= 0 && (a >= n || b >= n) -> (
        match st.policy with
        | Repair.Strict ->
          if st.strict_range = None then
            st.strict_range <-
              Some
                (Err.v ?file:st.file ~line:ln Err.Range
                   (Printf.sprintf "node id %d >= declared count %d" (max a b) n));
          true
        | Repair.Skip ->
          st.ev_range <-
            {
              Repair.line = ln;
              action = Repair.Dropped_out_of_range;
              detail = Printf.sprintf "%d %d vs count %d" a b n;
            }
            :: st.ev_range;
          false
        | Repair.Repair ->
          if st.widen_line < 0 then st.widen_line <- ln;
          true)
      | _ -> true
    in
    if keep then begin
      (* The duplicate key is the post-clamp record. It includes
         [t_beg], and streamed [t_beg] is non-decreasing, so streamed
         duplicates are contiguous in equal-[t_beg] runs and a per-run
         table equals the whole-file one. *)
      let dup =
        st.policy = Repair.Repair
        && begin
             if st.ordered && t_beg <> st.dedup_beg then begin
               Hashtbl.reset st.dedup;
               st.dedup_beg <- t_beg
             end;
             let key = (a, b, t_beg, t_end) in
             if Hashtbl.mem st.dedup key then begin
               st.ev_dup <-
                 {
                   Repair.line = ln;
                   action = Repair.Merged_duplicate;
                   detail = Printf.sprintf "%d %d %g %g" a b t_beg t_end;
                 }
                 :: st.ev_dup;
               true
             end
             else begin
               Hashtbl.add st.dedup key ();
               false
             end
           end
      in
      if not dup then begin
        st.kept <- st.kept + 1;
        (* [Float.min] / [Float.max], which put -0 below +0: the sign
           is read only on a tie *)
        if t_beg < st.min_beg || (t_beg = st.min_beg && Float.sign_bit t_beg) then
          st.min_beg <- t_beg;
        if t_end > st.max_end || (t_end = st.max_end && not (Float.sign_bit t_end)) then
          st.max_end <- t_end;
        (* canonical [a < b], as [Contact.make] makes it *)
        if a < b then Trace.Builder.add st.buf ~a ~b ~t_beg ~t_end
        else Trace.Builder.add st.buf ~a:b ~b:a ~t_beg ~t_end
      end
    end
  end

let accept st ln a b t_beg t_end =
  if st.ordered then record st ln a b t_beg t_end
  else begin
    let h = st.held in
    let i = h.len in
    h.ln.(i) <- ln;
    h.a.(i) <- a;
    h.b.(i) <- b;
    h.t_beg.(i) <- t_beg;
    h.t_end.(i) <- t_end;
    h.len <- i + 1
  end

(* --- the line scan ---

   A line is the bytes [lo, hi) of the text, read where they lie. The
   reference trims each line with [String.trim], splits it on [' '] and
   drops the empty pieces, then converts the fields with
   [int_of_string_opt] / [float_of_string_opt]. The scan makes the same
   cuts and reaches the same values in one pass over each field, and
   builds a string only for a header, an event, an error or a field
   that needs the library converter. *)

(* [String.trim]'s whitespace *)
let is_blank = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

let rec skip_blanks s i hi = if i < hi && is_blank s.[i] then skip_blanks s (i + 1) hi else i
let rec trim_end s lo j = if j > lo && is_blank s.[j - 1] then trim_end s lo (j - 1) else j

(* A field is a maximal run of bytes other than [' ']: a tab inside a
   line belongs to a field, which then fails to convert. Each
   converter below reads the field that starts at [i] and leaves its
   end in [st.pos]. *)
let rec skip_spaces s i hi = if i < hi && s.[i] = ' ' then skip_spaces s (i + 1) hi else i
let rec field_end s i hi = if i < hi && s.[i] <> ' ' then field_end s (i + 1) hi else i

(* The field's value if it is all decimal digits (its end in
   [st.pos]), else -1. *)
let rec digits st s k hi acc =
  if k < hi && s.[k] <> ' ' then begin
    let d = Char.code s.[k] - 48 in
    if d >= 0 && d <= 9 then digits st s (k + 1) hi ((10 * acc) + d) else -1
  end
  else begin
    st.pos <- k;
    acc
  end

(* A node id: 1 to 18 decimal digits are read in place (below
   [max_int]); any other form is [int_of_string_opt] of the field. *)
let node st s i hi =
  let v = digits st s i hi 0 in
  if v >= 0 && st.pos - i <= 18 then v
  else begin
    let j = field_end s i hi in
    st.pos <- j;
    match int_of_string_opt (String.sub s i (j - i)) with
    | Some v -> v
    | None ->
      st.bad_field <- true;
      0
  end

(* A contact time, bit for bit what [float_of_string] (a correctly
   rounded [strtod]) returns. 1 to 18 decimal digits are an integer
   below 10^18 (an OCaml int), and [float_of_int] rounds it once, to
   nearest even, as [strtod] rounds the same number: every
   integer-second trace takes this path. Any other form (a point, a
   sign, an exponent, [_], hex, [inf], [nan], more digits) is
   [float_of_string_opt] of the field, which raises nothing on a field
   that converts. *)
let time st s i hi =
  let v = digits st s i hi 0 in
  if v >= 0 && st.pos - i <= 18 then float_of_int v
  else begin
    let j = field_end s i hi in
    st.pos <- j;
    match float_of_string_opt (String.sub s i (j - i)) with
    | Some t -> t
    | None ->
      st.bad_field <- true;
      nan
  end

let line_event st lineno action s lo hi =
  st.ev_parse <- { Repair.line = lineno; action; detail = String.sub s lo (hi - lo) } :: st.ev_parse

(* [lo] and [hi - 1] are not blank. Every field is read before the count
   is checked; a read has no effect but [st.pos] and [st.bad_field], so
   a wrong count still outranks a bad field, as in the reference. *)
let handle_record_line st lineno s lo hi =
  st.bad_field <- false;
  let a = node st s lo hi in
  let b0 = skip_spaces s st.pos hi in
  let b = node st s b0 hi in
  let c0 = skip_spaces s st.pos hi in
  let t_beg = time st s c0 hi in
  let d0 = skip_spaces s st.pos hi in
  let t_end = time st s d0 hi in
  if d0 = hi || st.pos < hi then begin
    if st.strict then err st ~line:lineno Err.Parse "expected 4 fields: a b t_beg t_end"
    else line_event st lineno Repair.Dropped_malformed s lo hi
  end
  else if st.bad_field then begin
    if st.strict then err st ~line:lineno Err.Parse "bad field"
    else line_event st lineno Repair.Dropped_malformed s lo hi
  end
  else if not (Float.is_finite t_beg && Float.is_finite t_end) then begin
    if st.strict then err st ~line:lineno Err.Contact "non-finite contact time"
    else line_event st lineno Repair.Dropped_nonfinite s lo hi
  end
  else if a < 0 || b < 0 then begin
    if st.strict then err st ~line:lineno Err.Contact "negative node id"
    else line_event st lineno Repair.Dropped_negative_id s lo hi
  end
  else if a = b then begin
    if st.strict then err st ~line:lineno Err.Contact "self-contact (%d %d)" a b
    else line_event st lineno Repair.Dropped_self_loop s lo hi
  end
  else if t_beg > t_end then begin
    match st.policy with
    | Repair.Strict -> err st ~line:lineno Err.Contact "reversed interval [%g; %g]" t_beg t_end
    | Repair.Repair ->
      line_event st lineno Repair.Swapped_interval s lo hi;
      accept st lineno a b t_end t_beg
    | Repair.Skip -> line_event st lineno Repair.Dropped_malformed s lo hi
  end
  else accept st lineno a b t_beg t_end

(* The line [lo, hi) of [s], without its newline. *)
let process_line st s lo hi =
  st.lineno <- st.lineno + 1;
  let lo = skip_blanks s lo hi in
  let hi = trim_end s lo hi in
  if lo < hi then begin
    st.n_lines <- st.n_lines + 1;
    if s.[lo] = '#' then handle_header st st.lineno (String.sub s lo (hi - lo))
    else handle_record_line st st.lineno s lo hi
  end

(* Feed a chunk of bytes; a partial trailing line is carried into the
   next chunk, so any chunking of the input — including one byte at a
   time — processes the identical line sequence. *)
let feed st chunk =
  let data = if st.carry = "" then chunk else st.carry ^ chunk in
  let n = String.length data in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from data !start '\n' in
       process_line st data !start i;
       start := i + 1
     done
   with Not_found -> ());
  st.carry <- String.sub data !start (n - !start)

(* End of one input file: the carry is its last line, possibly empty
   (a file split on '\n' always yields a final segment). *)
let eof_file st =
  let last = st.carry in
  st.carry <- "";
  process_line st last 0 (String.length last)

let finalize st =
  let h = st.held in
  st.held <- make_held 0;
  (* At most every held record is kept: sized once, exactly, the
     buffers become the trace's arrays without a trimming copy. *)
  Trace.Builder.reserve st.buf h.len;
  for i = 0 to h.len - 1 do
    record st h.ln.(i) h.a.(i) h.b.(i) h.t_beg.(i) h.t_end.(i)
  done;
  (match st.strict_window with Some e -> raise (Err.Error e) | None -> ());
  let n_nodes =
    match st.h_nodes with
    | Some (n, hln) when n < 0 ->
      if st.strict then err st ~line:hln Err.Header "negative node count %d" n
      else begin
        st.ev_range <-
          {
            Repair.line = hln;
            action = Repair.Ignored_header;
            detail = Printf.sprintf "nodes %d" n;
          }
          :: st.ev_range;
        st.max_node + 1
      end
    | Some (n, _) ->
      (match st.strict_range with Some e -> raise (Err.Error e) | None -> ());
      if st.widen_line >= 0 then begin
        st.ev_range <-
          {
            Repair.line = st.widen_line;
            action = Repair.Widened_node_count;
            detail = Printf.sprintf "%d -> %d" n (st.max_node + 1);
          }
          :: st.ev_range;
        st.max_node + 1
      end
      else n
    | None -> st.max_node + 1
  in
  let t_start, t_end =
    match st.h_window with
    | Some (a, b, _) -> (a, b)
    | None -> if st.kept = 0 then (0., 0.) else (st.min_beg, st.max_end)
  in
  let name = Option.value st.h_name ~default:"trace" in
  let events =
    List.stable_sort
      (fun a b -> compare a.Repair.line b.Repair.line)
      (List.rev st.ev_parse @ List.rev st.ev_window @ List.rev st.ev_range @ List.rev st.ev_dup)
  in
  let report = { Repair.policy = st.policy; total_lines = st.n_lines; kept = st.kept; events } in
  Omn_obs.Metrics.add m_lines report.Repair.total_lines;
  Omn_obs.Metrics.add m_kept report.Repair.kept;
  Omn_obs.Metrics.add m_repaired (Repair.n_repaired report);
  Omn_obs.Metrics.add m_dropped (Repair.n_dropped report);
  (name, n_nodes, (t_start, t_end), report)

(* --- drivers --- *)

let pump st buf ic =
  let rec loop () =
    let n = input ic buf 0 chunk in
    if n > 0 then begin
      feed st (Bytes.sub_string buf 0 n);
      loop ()
    end
  in
  loop ()

let shard_list ~index_path text =
  let dir = Filename.dirname index_path in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
       let l = String.trim l in
       if l = "" || l.[0] = '#' then None
       else Some (if Filename.is_relative l then Filename.concat dir l else l))

let is_magic_line line = String.trim line = shard_magic

let is_shard_index path =
  match In_channel.with_open_bin path In_channel.input_line with
  | Some first -> is_magic_line first
  | None | (exception Sys_error _) -> false

(* Raises [Err.Error]; [Sys_error] is mapped by the public wrappers. *)
let run ~policy path =
  let st = create ~policy ~ordered:true ~hold:0 in
  st.file <- Some path;
  let buf = Bytes.create chunk in
  let mode =
    In_channel.with_open_bin path (fun ic ->
      (* the whole first line, however short the reads come back *)
      match In_channel.input_line ic with
      | Some first when is_magic_line first -> `Index (In_channel.input_all ic)
      | first ->
        Option.iter (fun l -> feed st (l ^ "\n")) first;
        pump st buf ic;
        `Plain)
  in
  (match mode with
  | `Plain -> eof_file st
  | `Index text ->
    List.iter
      (fun shard ->
        st.file <- Some shard;
        In_channel.with_open_bin shard (fun ic -> pump st buf ic);
        eof_file st)
      (shard_list ~index_path:path text);
    st.file <- Some path);
  st

(* One [ingest.parse] span per load: the scan and the record stage (and
   the streaming reader's reads). It closes before [Trace.create], whose
   span stays a root. *)
let ingest f = Omn_obs.Span.with_ ~name:"ingest.parse" f

let build_trace ?file st (name, n_nodes, (t_start, t_end), report) =
  match Trace.of_builder_result ~name ~n_nodes ~t_start ~t_end st.buf with
  | Ok t -> Ok (t, report)
  | Error e -> Error (match file with Some f -> Err.in_file f e | None -> e)

let load_result ?(policy = Repair.Strict) path =
  match
    ingest (fun () ->
      let st = run ~policy path in
      (st, finalize st))
  with
  | exception Err.Error e -> Error e
  | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)
  | st, parsed -> build_trace ~file:path st parsed

let parse_text ~ordered ?(policy = Repair.Strict) ?file chunks =
  (* the in-memory reader holds at most one record per line *)
  let lines text =
    let rec go n i =
      match String.index_from_opt text i '\n' with Some j -> go (n + 1) (j + 1) | None -> n
    in
    go 0 0
  in
  let hold = if ordered then 0 else List.fold_left (fun n c -> n + lines c) 1 chunks in
  let st = create ~policy ~ordered ~hold in
  st.file <- file;
  match
    ingest (fun () ->
      List.iter (feed st) chunks;
      eof_file st;
      finalize st)
  with
  | exception Err.Error e -> Error e
  | parsed -> build_trace ?file st parsed

let parse_chunks ?policy ?file chunks = parse_text ~ordered:true ?policy ?file chunks
let parse ?policy ?file text = parse_chunks ?policy ?file [ text ]
let parse_whole ?policy ?file text = parse_text ~ordered:false ?policy ?file [ text ]
