(* Differential pin of both trace readers against a frozen reference.

   [Trace_io.parse] (in-memory) and [Trace_stream] (streaming) run one
   parser; [Ingest_reference] is the whole-input parser it replaced.
   The streaming reader promises the reference's trace bytes AND repair
   report on any time-ordered input, under all three ingestion
   policies, no matter how the input is cut into chunks; the in-memory
   reader promises them on any input. These tests hold both to it:

   - ~100 seeded instances from the four generator families, serialised
     and re-read (clean and with seeded time-ordered dirt) under Strict /
     Repair / Skip through both readers, the streaming one also cut at
     random points, compared with the reference outcome for outcome
     (trace bytes, repair report, or the exact error);
   - ~2,000 seeded texts the streaming reader rejects — shuffled
     records, late and repeated headers, out-of-window, out-of-range,
     reversed and duplicate lines — through the in-memory reader;
   - a QCheck property that arbitrary chunk boundaries — including cuts
     inside a record — never change the streamed parse;
   - truncation at every byte of a serialised trace (EOF mid-record)
     through both readers under each policy;
   - the [ingest.*] counters move by the repair report's totals;
   - out-of-order input is rejected by the streaming reader with a typed
     [Contact] error under every policy (the documented divergence: it
     cannot sort);
   - a [Shard_sink] write-out has pinned bytes and streams back
     byte-identical to the in-memory generator that fed it, a spill
     that cannot be opened leaves no spill behind, and an index is
     recognised however the reads split its first line;
   - 3,000 texts of odd field forms (blanks around and between fields,
     signed, hex, underscored and overflowing ids, every rendering of a
     time the converters tell apart) through all three readers under
     every policy, against the reference;
   - over a million time fields read bit for bit as [float_of_string]
     reads them. *)

module Rng = Omn_stats.Rng
module Trace = Omn_temporal.Trace
module Trace_io = Omn_temporal.Trace_io
module Stream = Omn_temporal.Trace_stream
module Repair = Omn_robust.Repair
module Err = Omn_robust.Err
module Metrics = Omn_obs.Metrics
module Reference = Ingest_reference

let policies = [ Repair.Strict; Repair.Repair; Repair.Skip ]

let policy_name = function
  | Repair.Strict -> "strict"
  | Repair.Repair -> "repair"
  | Repair.Skip -> "skip"

(* Canonical rendering of a parse outcome: equal strings = equal trace
   bytes, equal repair report (policy, counts, every event), or the
   same typed error at the same line. *)
let show = function
  | Ok (trace, report) ->
    Printf.sprintf "Ok\n%s---\n%s" (Trace_io.to_string trace)
      (Format.asprintf "%a" Repair.pp report)
  | Error (e : Err.t) -> Format.asprintf "Error %a" Err.pp e

let instance seed =
  let rng = Rng.create seed in
  match seed mod 4 with
  | 0 -> Util.random_trace rng ~n:(3 + Rng.int rng 4) ~m:(4 + Rng.int rng 20) ~horizon:20
  | 1 ->
    Omn_randnet.Continuous.generate rng { n = 3 + Rng.int rng 4; lambda = 0.4; horizon = 10. }
  | 2 ->
    Omn_mobility.Random_waypoint.generate rng
      {
        n = 4;
        area = 120.;
        v_min = 0.5;
        v_max = 1.5;
        mean_pause = 10.;
        range = 40.;
        horizon = 300.;
        dt = 5.;
      }
  | _ ->
    let n = 4 in
    let params = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.1 in
    Omn_mobility.Venue.generate rng ~n ~name:"stream-venue" params

(* Seeded dirt that keeps the record stream time-ordered (the contract
   the streaming reader documents), so both parsers must agree even
   under Repair: duplicated records (inserted adjacently — same t_beg),
   garbage lines, stray comments, blank lines. *)
let dirty rng text =
  let lines = String.split_on_char '\n' text in
  let out =
    List.concat_map
      (fun line ->
        let is_record = line <> "" && line.[0] <> '#' in
        match Rng.int rng 8 with
        | 0 when is_record -> [ line; line ] (* exact duplicate *)
        | 1 -> [ line; "not a record at all" ]
        | 2 -> [ line; "# stray comment" ]
        | 3 -> [ line; "" ]
        | 4 when is_record -> [ line; "1 2 3" ] (* wrong field count *)
        | _ -> [ line ])
      lines
  in
  String.concat "\n" out

(* Seeded chunking: cut the text at random positions, including inside
   records and inside multi-byte float literals. *)
let chop rng text =
  let n = String.length text in
  let rec go start acc =
    if start >= n then List.rev acc
    else
      let len = min (n - start) (1 + Rng.int rng 37) in
      go (start + len) (String.sub text start len :: acc)
  in
  go 0 []

let check_parity seed =
  let rng = Rng.create (seed * 7 + 1) in
  let clean = Trace_io.to_string (instance seed) in
  let texts = [ ("clean", clean); ("dirty", dirty rng clean) ] in
  let errs = ref [] in
  List.iter
    (fun (label, text) ->
      List.iter
        (fun policy ->
          let reference = show (Reference.parse ~policy ~file:"t" text) in
          let check reader got =
            if got <> reference then
              errs :=
                Printf.sprintf "seed %d (%s, %s): %s mismatch:\n%s\n=== vs reference ===\n%s" seed
                  label (policy_name policy) reader got reference
                :: !errs
          in
          check "in-memory" (show (Trace_io.parse ~policy ~file:"t" text));
          check "streamed" (show (Stream.parse ~policy ~file:"t" text));
          check "chunked" (show (Stream.parse_chunks ~policy ~file:"t" (chop rng text))))
        policies)
    texts;
  !errs

let test_streaming_differential () =
  let seeds = List.init 100 (fun i -> 8200 + i) in
  let errs = List.concat_map check_parity seeds in
  match errs with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d parity failure(s) across 100 instances; first:\n%s" (List.length errs)
      first

(* A text only a whole-file reader accepts as the reference does:
   records in any order, [nodes] / [window] / [name] headers anywhere
   (repeated, so last-wins matters; windows sometimes reversed), and
   the lines every policy acts on — out-of-window, out-of-range,
   reversed, self-loops, exact duplicates. Times are small integers, so
   window clamps turn distinct records into duplicates: which one is
   kept, and which violator is reported first, follow file order. *)
let unordered rng =
  let n = 3 + Rng.int rng 4 in
  let record () =
    let t0 = Rng.int rng 16 - 3 in
    Printf.sprintf "%d %d %d %d" (Rng.int rng (n + 1)) (Rng.int rng (n + 1)) t0
      (t0 + Rng.int rng 7 - 1)
  in
  let records = List.init (3 + Rng.int rng 14) (fun _ -> record ()) in
  let records = records @ List.filter (fun _ -> Rng.int rng 3 = 0) records in
  let header () =
    let lo = Rng.int rng 4 and hi = 6 + Rng.int rng 10 in
    match Rng.int rng 4 with
    | 0 -> Printf.sprintf "# nodes %d" (n - 1 + Rng.int rng 3)
    | 1 -> Printf.sprintf "# window %d %d" lo hi
    | 2 -> Printf.sprintf "# window %d %d" hi lo
    | _ -> Printf.sprintf "# name u%d" (Rng.int rng 3)
  in
  let lines = Array.of_list (List.init (Rng.int rng 5) (fun _ -> header ()) @ records) in
  Rng.shuffle rng lines;
  String.concat "\n" (Array.to_list lines)

let test_unordered_differential () =
  let errs = ref [] and diverged = ref 0 and accepted = ref 0 in
  for seed = 1 to 2000 do
    let text = unordered (Rng.create (31 * seed)) in
    List.iter
      (fun policy ->
        let reference = Reference.parse ~policy ~file:"u" text in
        if Result.is_ok reference then incr accepted;
        let reference = show reference in
        let got = show (Trace_io.parse ~policy ~file:"u" text) in
        if got <> reference then
          errs :=
            Printf.sprintf "seed %d (%s):\n%s\n--- in-memory:\n%s\n=== vs reference ===\n%s" seed
              (policy_name policy) text got reference
            :: !errs;
        if show (Stream.parse ~policy ~file:"u" text) <> reference then incr diverged)
      policies
  done;
  (match List.rev !errs with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d parity failure(s) across 2000 unordered texts; first:\n%s"
      (List.length !errs) first);
  (* the generator must keep producing what the suite is for: inputs the
     streaming reader does not accept as the reference does, and enough
     accepted parses that repairs and choices are compared, not just
     errors *)
  if !diverged * 2 < 6000 || !accepted * 3 < 6000 then
    Alcotest.failf "degenerate texts: streaming diverges on %d, reference accepts %d, of 6000"
      !diverged !accepted

(* The streaming reader's documented rejection of out-of-order input. *)
let is_out_of_order = function
  | Error (e : Err.t) ->
    e.Err.code = Err.Contact
    && Util.contains_substring (Format.asprintf "%a" Err.pp e) "out-of-order"
  | Ok _ -> false

(* QCheck: the streamed parse is invariant under the chunking, for
   arbitrary cut points of a fixed input that exercises headers,
   repairs and drops, and equals the reference's unless the input is
   out of order for the streaming reader (it is, under Repair: a
   swapped interval moves a t_beg back). *)
let qcheck_text =
  "# omn-trace 1\n# name q\n# nodes 5\n# window 0 40\n0 1 1 2\n0 1 1 2\njunk line\n\
   2 3 2 100\n# late comment\n1 4 3 3\n3 4 3 1\n2 4 5 9\n"

let split_at_cuts text cuts =
  let n = String.length text in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) in
  let rec go start = function
    | [] -> [ String.sub text start (n - start) ]
    | c :: rest -> String.sub text start (c - start) :: go c rest
  in
  go 0 cuts

let test_chunk_invariance =
  QCheck2.Test.make ~count:300 ~name:"chunk boundaries never change the parse"
    QCheck2.Gen.(
      pair
        (oneofl policies)
        (list_size (int_range 0 12) (int_range 0 (String.length qcheck_text))))
    (fun (policy, cuts) ->
      let whole = Stream.parse ~policy ~file:"q" qcheck_text in
      let split = show (Stream.parse_chunks ~policy ~file:"q" (split_at_cuts qcheck_text cuts)) in
      show whole = split
      && (is_out_of_order whole
         || show whole = show (Reference.parse ~policy ~file:"q" qcheck_text)))

(* EOF mid-record: truncating the serialised trace at every byte leaves
   both readers in agreement with the reference — the carry buffer at
   EOF must behave exactly like a whole-input split on '\n' seeing a
   short last line. *)
let test_truncation () =
  let text = Trace_io.to_string (instance 8301) in
  let n = String.length text in
  (* One legitimate escape hatch for the streaming reader: a cut inside
     a float can leave a reversed interval whose swap-repair moves its
     t_beg before the already-emitted records, and the reader then
     raises its documented out-of-order rejection instead of sorting.
     Count those: they must stay a rare corner, not the common case. *)
  let divergences = ref 0 and compared = ref 0 in
  for cut = 0 to n - 1 do
    List.iter
      (fun policy ->
        let t = String.sub text 0 cut in
        let reference = Reference.parse ~policy ~file:"t" t in
        let in_memory = Trace_io.parse ~policy ~file:"t" t in
        let streamed = Stream.parse ~policy ~file:"t" t in
        if show reference <> show in_memory then
          Alcotest.failf "cut %d (%s): in-memory truncation mismatch:\n%s\n=== vs ===\n%s" cut
            (policy_name policy) (show reference) (show in_memory);
        incr compared;
        if is_out_of_order streamed && not (is_out_of_order reference) then incr divergences
        else if show reference <> show streamed then
          Alcotest.failf "cut %d (%s): truncation mismatch:\n%s\n=== vs ===\n%s" cut
            (policy_name policy) (show reference) (show streamed))
      policies
  done;
  if !divergences * 10 > !compared then
    Alcotest.failf "out-of-order divergence on %d of %d truncations: not a corner case"
      !divergences !compared

(* The [ingest.*] counters move by exactly the repair report's totals,
   whichever reader ran. *)
let test_ingest_counters () =
  let names =
    [ "ingest.lines_read"; "ingest.contacts_kept"; "ingest.lines_repaired"; "ingest.lines_dropped" ]
  in
  let totals () =
    let snap = Metrics.snapshot () in
    List.map (fun name -> Option.value ~default:0 (Metrics.counter_total snap name)) names
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let clean = Trace_io.to_string (instance 8203) in
  let dirty = dirty (Rng.create 5) clean in
  List.iter
    (fun (reader, parse) ->
      List.iter
        (fun (policy, text) ->
          let label = Printf.sprintf "%s, %s" reader (policy_name policy) in
          let before = totals () in
          match parse ~policy text with
          | Error e -> Alcotest.failf "%s: %a" label Err.pp e
          | Ok (_, (r : Repair.report)) ->
            let delta = List.map2 ( - ) (totals ()) before in
            if policy <> Repair.Strict && Repair.is_clean r then
              Alcotest.failf "%s: the dirty text needed no repair" label;
            Alcotest.(check (list int))
              (label ^ ": counter deltas = report totals")
              [ r.total_lines; r.kept; Repair.n_repaired r; Repair.n_dropped r ]
              delta)
        [ (Repair.Strict, clean); (Repair.Repair, dirty); (Repair.Skip, dirty) ])
    [
      ("in-memory", fun ~policy text -> Trace_io.parse ~policy text);
      ("streamed", fun ~policy text -> Stream.parse ~policy text);
    ]

(* The documented divergence: the streaming reader cannot sort, so
   out-of-order input is a typed [Contact] error under every policy
   (where the in-memory reader accepts it and [Trace.create] sorts). *)
let test_out_of_order_rejected () =
  let text = "# omn-trace 1\n# nodes 3\n# window 0 10\n0 1 5 6\n1 2 1 2\n" in
  List.iter
    (fun policy ->
      match Stream.parse ~policy ~file:"t" text with
      | Ok _ -> Alcotest.failf "%s: out-of-order input accepted" (policy_name policy)
      | Error e ->
        if e.Err.code <> Err.Contact then
          Alcotest.failf "%s: expected a Contact error, got %a" (policy_name policy) Err.pp e)
    policies;
  (* the same text is fine for the in-memory reader *)
  match Trace_io.parse ~policy:Repair.Strict ~file:"t" text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Trace_io rejected unordered input: %a" Err.pp e

(* Shard sink round-trip: generator -> sink -> streamed index is
   byte-identical to the in-memory generator, for both the venue
   iterator and a plain [Trace.iter] spill. *)
let with_temp_dir f =
  let dir = Filename.temp_file "omn_sink" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_shard_sink_roundtrip () =
  let n = 8 in
  let in_memory =
    let rng = Rng.create 4242 in
    let p = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.15 in
    Omn_mobility.Venue.generate rng ~n ~name:"sinkcheck" p
  in
  with_temp_dir (fun dir ->
      let index = Filename.concat dir "trace.idx" in
      let sink =
        Omn_mobility.Shard_sink.create ~shards:5 ~name:"sinkcheck" ~n_nodes:n
          ~t_start:(Trace.t_start in_memory) ~t_end:(Trace.t_end in_memory) index
      in
      let rng = Rng.create 4242 in
      let p = Omn_mobility.Venue.conference_params ~rng ~n ~days:0.15 in
      Omn_mobility.Venue.iter_contacts rng ~n p (Omn_mobility.Shard_sink.add sink);
      Omn_mobility.Shard_sink.finish sink;
      (* The sink's own bytes: a header or record byte that moves fails
         here even where the streamed trace still matches. *)
      List.iter
        (fun (file, want) ->
          Alcotest.(check string) (file ^ " SHA-256") want
            (Omn_obs.Sha256.string
               (In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all)))
        [
          ("trace.idx", "71678c7c0d1cc7714a669ccf3932be5f9cb01ad33d9979324bb0fa6ad7ec6b05");
          ("trace.idx.0000", "e2f6708a3525d91c39f0441cab9dbe92c5ac31785bd0eab956d2325737db1060");
          ("trace.idx.0001", "1b7cc187fbf2b320045920b268a883d81c3e50695cf8459844c30c0058e410f9");
          ("trace.idx.0002", "1b7cc187fbf2b320045920b268a883d81c3e50695cf8459844c30c0058e410f9");
          ("trace.idx.0003", "1b7cc187fbf2b320045920b268a883d81c3e50695cf8459844c30c0058e410f9");
          ("trace.idx.0004", "1b7cc187fbf2b320045920b268a883d81c3e50695cf8459844c30c0058e410f9");
        ];
      match Stream.load_result index with
      | Error e -> Alcotest.failf "streaming the index failed: %a" Err.pp e
      | Ok (streamed, _report) ->
        Alcotest.(check string)
          "sink -> stream = in-memory generator" (Trace_io.to_string in_memory)
          (Trace_io.to_string streamed))

(* A spill that cannot be opened leaves none behind: [create] closes
   and removes the spills it opened before it re-raises. *)
let test_shard_sink_failed_open () =
  with_temp_dir (fun dir ->
      let index = Filename.concat dir "trace.idx" in
      let planted = index ^ ".spill.0003" in
      Unix.mkdir planted 0o700;
      (match
         Omn_mobility.Shard_sink.create ~shards:8 ~name:"x" ~n_nodes:2 ~t_start:0. ~t_end:1. index
       with
      | exception Sys_error _ -> ()
      | sink ->
        Omn_mobility.Shard_sink.abort sink;
        Alcotest.fail "create opened a spill over a directory");
      let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
      Unix.rmdir planted;
      Alcotest.(check (list string)) "spill entries left" [ "trace.idx.spill.0003" ] left)

(* The first line decides between a trace and a shard index, whatever
   sizes the reads come back in: a pipe that delivers the magic line in
   two writes still streams as an index. *)
let test_index_magic_split_read () =
  with_temp_dir (fun dir ->
      let trace = instance 8204 in
      Trace_io.save trace (Filename.concat dir "s.omn");
      let fifo = Filename.concat dir "trace.idx" in
      Unix.mkfifo fifo 0o600;
      let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe) @@ fun () ->
      let writer =
        Domain.spawn (fun () ->
          Out_channel.with_open_bin fifo (fun oc ->
            output_string oc "# omn-sh";
            flush oc;
            Unix.sleepf 0.05;
            output_string oc "ards 1\ns.omn\n"))
      in
      let streamed = Stream.load_result fifo in
      Domain.join writer;
      match streamed with
      | Error e -> Alcotest.failf "index read in two pieces: %a" Err.pp e
      | Ok (t, _) ->
        Alcotest.(check string) "index streams its shard" (Trace_io.to_string trace)
          (Trace_io.to_string t))

(* Field forms. The readers scan each line in place and convert the
   common forms without the library converters; every other form must
   still come out as the reference's [String.trim] / split /
   [*_of_string_opt] reads it. A text is 1-8 record lines under
   [# nodes 7] with no window, so the inferred window (signed zeros
   included) is compared too. Times mostly rise from line to line, so
   the streaming readers are compared as well; they may only add their
   documented out-of-order rejection, and rarely. *)
let odd_ids = [| "07"; "+5"; "-3"; "0x1f"; "1_2"; "5_"; "2.0"; "12345678901234567890" |]

let odd_times =
  [|
    "5."; ".5"; "1e1"; "inf"; "nan"; "-0"; "0"; "00012.500"; "1_0.5"; "0x1p3";
    "9007199254740993"; "9007199254740993.0";
  |]

let render_time rng v =
  (* a zero is often -0: records at both -0 and 0 set the inferred
     window's sign *)
  if v = 0. && Rng.int rng 3 = 0 then "-0"
  else
    match Rng.int rng 10 with
    | 0 -> Printf.sprintf "%.15g" v
    | 1 -> Printf.sprintf "%.16g" v
    | 2 -> Printf.sprintf "%.17g" v
    | 3 -> Printf.sprintf "%.18g" v
    | 4 -> Printf.sprintf "%.25f" v
    | 5 -> Printf.sprintf "%.3f" v
    | 6 -> odd_times.(Rng.int rng (Array.length odd_times))
    | _ -> if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let blanks rng = [| ""; ""; " "; "\t"; "\r"; " \t"; "\t "; "  " |].(Rng.int rng 8)

(* between two fields: mostly spaces; a tab, [\r] or form feed joins
   its neighbours into one field (or, between spaces, is one) *)
let gap rng = [| " "; " "; "  "; "   "; "\t"; " \t "; "\r"; " \012 " |].(Rng.int rng 8)

let field_text rng =
  let t = ref (float_of_int (Rng.int rng 4 - 1) *. [| 0.; 1.; 0.5; 0.37 |].(Rng.int rng 4)) in
  let lines =
    List.init
      (1 + Rng.int rng 8)
      (fun _ ->
        if Rng.int rng 12 = 0 then blanks rng
        else begin
          t := !t +. [| 0.; 0.; 1.; 0.25; Rng.float rng |].(Rng.int rng 5);
          let id () =
            if Rng.int rng 6 = 0 then odd_ids.(Rng.int rng (Array.length odd_ids))
            else string_of_int (Rng.int rng 7)
          in
          let t_end = !t +. float_of_int (Rng.int rng 3) in
          let fields = [ id (); id (); render_time rng !t; render_time rng t_end ] in
          let fields = if Rng.int rng 15 = 0 then fields @ [ id () ] else fields in
          let fields = if Rng.int rng 15 = 0 then List.tl fields else fields in
          blanks rng
          ^ List.fold_left (fun acc f -> if acc = "" then f else acc ^ gap rng ^ f) "" fields
          ^ blanks rng
        end)
  in
  String.concat "\n" ("# nodes 7" :: lines) ^ if Rng.bool rng then "\n" else ""

let test_field_forms () =
  let errs = ref [] and accepted = ref 0 and compared = ref 0 and out_of_order = ref 0 in
  for seed = 1 to 3000 do
    let rng = Rng.create (7919 * seed) in
    let text = field_text rng in
    List.iter
      (fun policy ->
        let reference = Reference.parse ~policy ~file:"f" text in
        if Result.is_ok reference then incr accepted;
        let reference = show reference in
        let check reader got =
          incr compared;
          if reader <> "in-memory" && is_out_of_order got then incr out_of_order
          else if show got <> reference then
            errs :=
              Printf.sprintf "seed %d (%s), %s:\n%S\n--- got:\n%s\n=== reference:\n%s" seed
                (policy_name policy) reader text (show got) reference
              :: !errs
        in
        check "in-memory" (Trace_io.parse ~policy ~file:"f" text);
        check "streamed" (Stream.parse ~policy ~file:"f" text);
        check "chunked" (Stream.parse_chunks ~policy ~file:"f" (chop rng text)))
      policies
  done;
  (match List.rev !errs with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d mismatch(es) across 3000 field-form texts; first:\n%s" (List.length !errs)
      first);
  if !accepted * 4 < 9000 || !out_of_order * 10 > !compared then
    Alcotest.failf "degenerate texts: %d of 9000 parses accepted, %d of %d out of order" !accepted
      !out_of_order !compared

(* Times bit for bit: every time field the readers convert, in place or
   not, is the double [float_of_string] gives its token. Tokens:
   [%.15g] to [%.18g], [%.12f] and [%.3f] renderings of uniform and
   2^k-scaled doubles and of the doubles within 50 ulps of a power of
   two, integers around 2^53 and 2^54 (halfway ties among them), and
   integers of 19 and 20 digits, one past the in-place path's 18 and
   mostly past [max_int]. Each line is [0 1 lo hi]; the trace sorts, so its two time columns
   are compared as sorted multisets with the tokens' values. *)
let test_times_bit_exact () =
  let rng = Rng.create 0x7135 in
  let formats =
    Printf.
      [|
        sprintf "%.15g"; sprintf "%.16g"; sprintf "%.17g"; sprintf "%.18g"; sprintf "%.12f";
        sprintf "%.3f";
      |]
  in
  let value () =
    match Rng.int rng 4 with
    | 0 -> Rng.float rng *. 86400.
    | 1 -> Rng.float rng *. Float.ldexp 1. (Rng.int rng 90 - 30)
    | _ ->
      let x = ref (Float.ldexp 1. (Rng.int rng 80 - 20)) in
      let up = Rng.bool rng in
      for _ = 1 to 1 + Rng.int rng 50 do
        x := if up then Float.succ !x else Float.pred !x
      done;
      !x
  in
  let token () =
    match Rng.int rng 16 with
    | 0 | 1 ->
      let base = if Rng.bool rng then 9007199254740992 else 18014398509481984 in
      string_of_int (base + Rng.int rng 101 - 50)
    | 2 ->
      String.init
        (19 + Rng.int rng 2)
        (fun k -> Char.chr (48 + if k = 0 then 1 + Rng.int rng 9 else Rng.int rng 10))
    | _ -> formats.(Rng.int rng (Array.length formats)) (value ())
  in
  let bits x = Int64.bits_of_float x in
  let fields = ref 0 and mismatches = ref 0 and first = ref "" in
  for _batch = 1 to 5 do
    let lines = 100_000 in
    let lo = Array.make lines 0. and hi = Array.make lines 0. in
    let text = Buffer.create (lines * 48) in
    Buffer.add_string text "# nodes 2\n";
    for k = 0 to lines - 1 do
      let s1 = token () and s2 = token () in
      let v1 = float_of_string s1 and v2 = float_of_string s2 in
      let (s1, v1), (s2, v2) = if v1 <= v2 then ((s1, v1), (s2, v2)) else ((s2, v2), (s1, v1)) in
      lo.(k) <- v1;
      hi.(k) <- v2;
      Printf.bprintf text "0 1 %s %s\n" s1 s2
    done;
    match Trace_io.parse (Buffer.contents text) with
    | Error e -> Alcotest.failf "times text refused: %a" Err.pp e
    | Ok (t, _) ->
      let csr = Trace.time_csr t in
      let got_lo = Array.copy csr.csr_beg and got_hi = Array.copy csr.csr_end in
      List.iter
        (fun (want, got) ->
          Array.sort Float.compare want;
          Array.sort Float.compare got;
          fields := !fields + Array.length want;
          Array.iteri
            (fun k w ->
              if bits w <> bits got.(k) then begin
                if !mismatches = 0 then first := Printf.sprintf "%h read as %h" w got.(k);
                incr mismatches
              end)
            want)
        [ (lo, got_lo); (hi, got_hi) ]
  done;
  if !mismatches > 0 then
    Alcotest.failf "%d of %d time fields differ from float_of_string; first: %s" !mismatches
      !fields !first

let suite =
  [
    Alcotest.test_case "out-of-order input: typed Contact error" `Quick
      test_out_of_order_rejected;
    Alcotest.test_case "shard sink round-trip (venue iterator)" `Quick
      test_shard_sink_roundtrip;
    Alcotest.test_case "EOF mid-record at every byte, all policies" `Slow test_truncation;
    Alcotest.test_case "streaming vs in-memory, 100 instances x 3 policies" `Slow
      test_streaming_differential;
    Alcotest.test_case "index magic split across reads" `Quick test_index_magic_split_read;
    Alcotest.test_case "ingest counters = repair report totals" `Quick test_ingest_counters;
    Alcotest.test_case "in-memory vs reference, 2000 unordered texts x 3 policies" `Slow
      test_unordered_differential;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ test_chunk_invariance ]
  @ [
      Alcotest.test_case "field forms: 3000 texts x 3 readers x 3 policies vs reference" `Slow
        test_field_forms;
      Alcotest.test_case "times bit for bit as float_of_string (1 M fields)" `Slow
        test_times_bit_exact;
      Alcotest.test_case "shard sink: a failed spill open leaves no spill" `Quick
        test_shard_sink_failed_open;
    ]
