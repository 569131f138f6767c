type t = {
  schema_version : string;
  cmdline : string list;
  config : (string * Json.t) list;
  seed : int option;
  trace_sha256 : string option;
  trace_name : string option;
  n_nodes : int option;
  n_contacts : int option;
  omn_version : string;
  git_describe : string option;
  ocaml_version : string;
  domains : int option;
  workers : int option;
  hostname : string;
  started : float;
  finished : float option;
}

let schema = "omn-manifest 1"

let git_describe =
  let cached = lazy (
    try
      let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None)
  in
  fun () -> Lazy.force cached

let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let create ?(config = []) ?seed ?trace_sha256 ?trace_name ?n_nodes ?n_contacts ?domains
    ?workers ?cmdline ~version () =
  {
    schema_version = schema;
    cmdline = (match cmdline with Some c -> c | None -> Array.to_list Sys.argv);
    config;
    seed;
    trace_sha256;
    trace_name;
    n_nodes;
    n_contacts;
    omn_version = version;
    git_describe = git_describe ();
    ocaml_version = Sys.ocaml_version;
    domains;
    workers;
    hostname = hostname ();
    started = Unix.gettimeofday ();
    finished = None;
  }

let finish m =
  match m.finished with Some _ -> m | None -> { m with finished = Some (Unix.gettimeofday ()) }

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let opt f = function Some v -> f v | None -> Json.Null

let to_json m =
  Json.Obj
    [
      ("schema", Json.String m.schema_version);
      ("cmdline", Json.List (List.map (fun s -> Json.String s) m.cmdline));
      ("config", Json.Obj m.config);
      ("seed", opt (fun s -> Json.Int s) m.seed);
      ("trace_sha256", opt (fun s -> Json.String s) m.trace_sha256);
      ("trace_name", opt (fun s -> Json.String s) m.trace_name);
      ("n_nodes", opt (fun n -> Json.Int n) m.n_nodes);
      ("n_contacts", opt (fun n -> Json.Int n) m.n_contacts);
      ("omn_version", Json.String m.omn_version);
      ("git_describe", opt (fun s -> Json.String s) m.git_describe);
      ("ocaml_version", Json.String m.ocaml_version);
      ("domains", opt (fun d -> Json.Int d) m.domains);
      ("workers", opt (fun w -> Json.Int w) m.workers);
      ("hostname", Json.String m.hostname);
      ("started_unix_s", Json.Float m.started);
      ("started", Json.String (iso8601 m.started));
      ("finished_unix_s", opt (fun t -> Json.Float t) m.finished);
      ("finished", opt (fun t -> Json.String (iso8601 t)) m.finished);
    ]

let of_json j =
  let shape what = Error ("manifest: bad or missing " ^ what) in
  let req name conv =
    match Option.bind (Json.member name j) conv with Some v -> Ok v | None -> shape name
  in
  (* Null and absent both mean None for optional fields. *)
  let optional name conv =
    match Json.member name j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match conv v with Some v -> Ok (Some v) | None -> shape name)
  in
  let ( let* ) r f = Result.bind r f in
  let* schema_version = req "schema" Json.to_str in
  if schema_version <> schema then shape "schema"
  else
    let* cmdline =
      match Json.member "cmdline" j with
      | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Json.to_str item with
            | Some s -> Ok (s :: acc)
            | None -> shape "cmdline")
          (Ok []) items
        |> Result.map List.rev
      | _ -> shape "cmdline"
    in
    let* config =
      match Json.member "config" j with Some (Json.Obj o) -> Ok o | _ -> shape "config"
    in
    let* seed = optional "seed" Json.to_int in
    let* trace_sha256 = optional "trace_sha256" Json.to_str in
    let* trace_name = optional "trace_name" Json.to_str in
    let* n_nodes = optional "n_nodes" Json.to_int in
    let* n_contacts = optional "n_contacts" Json.to_int in
    let* omn_version = req "omn_version" Json.to_str in
    let* git = optional "git_describe" Json.to_str in
    let* ocaml_version = req "ocaml_version" Json.to_str in
    let* domains = optional "domains" Json.to_int in
    let* workers = optional "workers" Json.to_int in
    let* hostname = req "hostname" Json.to_str in
    let* started = req "started_unix_s" Json.to_float in
    let* finished = optional "finished_unix_s" Json.to_float in
    Ok
      {
        schema_version;
        cmdline;
        config;
        seed;
        trace_sha256;
        trace_name;
        n_nodes;
        n_contacts;
        omn_version;
        git_describe = git;
        ocaml_version;
        domains;
        workers;
        hostname;
        started;
        finished;
      }
