(* Frozen reference for trace ingestion: the in-memory parser as it
   stood before both readers became one state machine
   ([Trace_stream]), kept verbatim (less its four [ingest.*] counter
   updates, which belong to the readers under test) so the
   differential suite in [test_stream.ml] can pin both readers to it.
   Whole-input passes: line checks, then window, range and duplicates
   over the record list in file order, then one stable sort of the
   events by line. Do not "fix" it: a change here moves the contract. *)

module Err = Omn_robust.Err
module Repair = Omn_robust.Repair
module Contact = Omn_temporal.Contact
module Trace = Omn_temporal.Trace

type header = {
  mutable name : string option;
  mutable nodes : (int * int) option; (* value, line *)
  mutable window : (float * float * int) option; (* lo, hi, line *)
}

(* A parsed record that survived field- and contact-level checks, still
   tagged with its source line for later window / range diagnostics. *)
type rec_ = { ln : int; a : int; b : int; t_beg : float; t_end : float }

let parse_lines ~policy ?file lines =
  let strict = policy = Repair.Strict in
  let events = ref [] in
  let event line action detail = events := { Repair.line; action; detail } :: !events in
  let err ?line code fmt = Format.kasprintf (fun msg -> raise (Err.Error (Err.v ?file ?line code msg))) fmt in
  try
    let header = { name = None; nodes = None; window = None } in
    let records = ref [] in
    let n_lines = ref 0 in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        let line = String.trim line in
        if line = "" then ()
        else begin
          incr n_lines;
          if line.[0] = '#' then begin
            let body = String.trim (String.sub line 1 (String.length line - 1)) in
            match String.split_on_char ' ' body with
            | "name" :: rest -> header.name <- Some (String.concat " " rest)
            | [ "nodes"; n ] -> (
              match int_of_string_opt n with
              | Some n -> header.nodes <- Some (n, lineno)
              | None ->
                if strict then err ~line:lineno Err.Header "bad node count %S" n
                else event lineno Repair.Ignored_header line)
            | [ "window"; a; b ] -> (
              match (float_of_string_opt a, float_of_string_opt b) with
              | Some a, Some b when Float.is_finite a && Float.is_finite b ->
                if a <= b then header.window <- Some (a, b, lineno)
                else begin
                  match policy with
                  | Repair.Strict ->
                    err ~line:lineno Err.Header "reversed window [%g; %g]" a b
                  | Repair.Repair ->
                    event lineno Repair.Swapped_window line;
                    header.window <- Some (b, a, lineno)
                  | Repair.Skip -> event lineno Repair.Ignored_header line
                end
              | _ ->
                if strict then err ~line:lineno Err.Header "bad window"
                else event lineno Repair.Ignored_header line)
            | _ -> () (* free comment *)
          end
          else begin
            match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
            | [ a; b; t_beg; t_end ] -> (
              match
                (int_of_string_opt a, int_of_string_opt b, float_of_string_opt t_beg,
                 float_of_string_opt t_end)
              with
              | Some a, Some b, Some t_beg, Some t_end ->
                if not (Float.is_finite t_beg && Float.is_finite t_end) then begin
                  if strict then err ~line:lineno Err.Contact "non-finite contact time"
                  else event lineno Repair.Dropped_nonfinite line
                end
                else if a < 0 || b < 0 then begin
                  if strict then err ~line:lineno Err.Contact "negative node id"
                  else event lineno Repair.Dropped_negative_id line
                end
                else if a = b then begin
                  if strict then err ~line:lineno Err.Contact "self-contact (%d %d)" a b
                  else event lineno Repair.Dropped_self_loop line
                end
                else if t_beg > t_end then begin
                  match policy with
                  | Repair.Strict ->
                    err ~line:lineno Err.Contact "reversed interval [%g; %g]" t_beg t_end
                  | Repair.Repair ->
                    event lineno Repair.Swapped_interval line;
                    records := { ln = lineno; a; b; t_beg = t_end; t_end = t_beg } :: !records
                  | Repair.Skip -> event lineno Repair.Dropped_malformed line
                end
                else records := { ln = lineno; a; b; t_beg; t_end } :: !records
              | _ ->
                if strict then err ~line:lineno Err.Parse "bad field"
                else event lineno Repair.Dropped_malformed line)
            | _ ->
              if strict then err ~line:lineno Err.Parse "expected 4 fields: a b t_beg t_end"
              else event lineno Repair.Dropped_malformed line
          end
        end)
      lines;
    let records = List.rev !records in
    (* window pass: the declared window is authoritative; reconcile the
       records with it according to the policy *)
    let records =
      match header.window with
      | None -> records
      | Some (w0, w1, _) ->
        List.filter_map
          (fun r ->
            if r.t_beg >= w0 && r.t_end <= w1 then Some r
            else
              match policy with
              | Repair.Strict ->
                err ~line:r.ln Err.Window "contact [%g; %g] outside declared window [%g; %g]"
                  r.t_beg r.t_end w0 w1
              | Repair.Skip ->
                event r.ln Repair.Dropped_out_of_window
                  (Printf.sprintf "[%g; %g] vs [%g; %g]" r.t_beg r.t_end w0 w1);
                None
              | Repair.Repair ->
                if r.t_end < w0 || r.t_beg > w1 then begin
                  event r.ln Repair.Dropped_out_of_window
                    (Printf.sprintf "[%g; %g] vs [%g; %g]" r.t_beg r.t_end w0 w1);
                  None
                end
                else begin
                  event r.ln Repair.Clamped_to_window
                    (Printf.sprintf "[%g; %g] -> [%g; %g]" r.t_beg r.t_end
                       (Float.max r.t_beg w0) (Float.min r.t_end w1));
                  Some { r with t_beg = Float.max r.t_beg w0; t_end = Float.min r.t_end w1 }
                end)
          records
    in
    (* range pass: reconcile node ids with the declared node count *)
    let max_node = List.fold_left (fun acc r -> max acc (max r.a r.b)) (-1) records in
    let n_nodes, records =
      match header.nodes with
      | Some (n, hln) when n < 0 ->
        if strict then err ~line:hln Err.Header "negative node count %d" n
        else begin
          event hln Repair.Ignored_header (Printf.sprintf "nodes %d" n);
          (max_node + 1, records)
        end
      | Some (n, _) when max_node >= n -> (
        match policy with
        | Repair.Strict ->
          let first = List.find (fun r -> r.a >= n || r.b >= n) records in
          err ~line:first.ln Err.Range "node id %d >= declared count %d"
            (max first.a first.b) n
        | Repair.Skip ->
          ( n,
            List.filter
              (fun r ->
                if r.a >= n || r.b >= n then begin
                  event r.ln Repair.Dropped_out_of_range
                    (Printf.sprintf "%d %d vs count %d" r.a r.b n);
                  false
                end
                else true)
              records )
        | Repair.Repair ->
          let first = List.find (fun r -> r.a >= n || r.b >= n) records in
          event first.ln Repair.Widened_node_count (Printf.sprintf "%d -> %d" n (max_node + 1));
          (max_node + 1, records))
      | Some (n, _) -> (n, records)
      | None -> (max_node + 1, records)
    in
    (* duplicate pass (Repair only): merge exact duplicate records *)
    let records =
      if policy <> Repair.Repair then records
      else begin
        let seen = Hashtbl.create 64 in
        List.filter
          (fun r ->
            let key = (r.a, r.b, r.t_beg, r.t_end) in
            if Hashtbl.mem seen key then begin
              event r.ln Repair.Merged_duplicate
                (Printf.sprintf "%d %d %g %g" r.a r.b r.t_beg r.t_end);
              false
            end
            else begin
              Hashtbl.add seen key ();
              true
            end)
          records
      end
    in
    let name = Option.value header.name ~default:"trace" in
    let t_start, t_end =
      match header.window with
      | Some (a, b, _) -> (a, b)
      | None ->
        if records = [] then (0., 0.)
        else
          List.fold_left
            (fun (lo, hi) r -> (Float.min lo r.t_beg, Float.max hi r.t_end))
            (infinity, neg_infinity) records
    in
    let contacts =
      List.map (fun r -> Contact.make ~a:r.a ~b:r.b ~t_beg:r.t_beg ~t_end:r.t_end) records
    in
    match Trace.create_result ~name ~n_nodes ~t_start ~t_end contacts with
    | Error e -> Error (match file with Some f -> Err.in_file f e | None -> e)
    | Ok trace ->
      let report =
        {
          Repair.policy;
          total_lines = !n_lines;
          kept = Trace.n_contacts trace;
          (* events accumulate across passes (parse, window, range,
             duplicates); re-establish source order *)
          events =
            List.stable_sort
              (fun a b -> compare a.Repair.line b.Repair.line)
              (List.rev !events);
        }
      in
      Ok (trace, report)
  with Err.Error e -> Error e

let parse ?(policy = Repair.Strict) ?file text =
  parse_lines ~policy ?file (String.split_on_char '\n' text)
