(* The opening handshake of every shard connection.

   Without a key, one CRC-framed text message each way, dialer
   (client) first:

     H   "omn-hello <ver> <build>"

   and each side checks the other's version and build before any
   Marshal-encoded record crosses the link.

   With a pre-shared key, three messages, dialer first:

     A1  "omn-auth1 <ver> <build> <nonce_c>"
     A2  "omn-auth2 <ver> <build> <nonce_s> <mac_s>"
     A3  "omn-auth3 <mac_c>"

   mac_s = HMAC(key, "server|" ^ transcript), mac_c = HMAC(key,
   "client|" ^ transcript), where the transcript binds both versions,
   builds and nonces — so each side proves key possession over the
   exact parameters the other side saw, and the two directions can
   never be confused or reflected. The listener remembers client
   nonces it has accepted: a replayed A1 (same nonce) is rejected even
   though its MAC would verify. A failure sends a best-effort
   "omn-auth-err E-AUTH|E-PROTO <msg>" frame before the connection is
   dropped, so the peer exits with the same typed error instead of a
   bare EOF. *)

module Err = Omn_robust.Err
module Sha256 = Omn_obs.Sha256

(* Version of this handshake + the Proto framing it fronts. Bump when
   the Marshal-encoded message set or the handshake frames change
   incompatibly. *)
let protocol_version = 5

(* Marshal requires both ends to agree on the runtime's value layout;
   refusing a different compiler version up front turns a would-be
   undecodable-message failure into a typed E-PROTO at connect time. *)
let default_build = "ocaml-" ^ Sys.ocaml_version

(* HMAC-SHA-256 (RFC 2104) over the hex-digest Sha256. Digests here
   are hex strings; only [hmac]'s output crosses the wire. *)
let hmac ~key msg =
  let block = 64 in
  let key = if String.length key > block then Sha256.string key else key in
  let pad = Bytes.make block '\000' in
  Bytes.blit_string key 0 pad 0 (String.length key);
  let xor_with c =
    String.init block (fun i -> Char.chr (Char.code (Bytes.get pad i) lxor c))
  in
  let ipad = xor_with 0x36 and opad = xor_with 0x5c in
  (* inner digest is hex; feeding hex into the outer hash keeps the
     construction self-consistent on both ends *)
  Sha256.string (opad ^ Sha256.string (ipad ^ msg))

let const_time_eq a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let nonce_counter = ref 0

let fresh_nonce () =
  incr nonce_counter;
  match
    let ic = open_in_bin "/dev/urandom" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic 16)
  with
  | raw -> String.concat "" (List.init 16 (fun i -> Printf.sprintf "%02x" (Char.code raw.[i])))
  | exception _ ->
    String.sub
      (Sha256.string
         (Printf.sprintf "%.17g|%d|%d" (Unix.gettimeofday ()) (Unix.getpid ())
            !nonce_counter))
      0 32

type state = { seen : (string, unit) Hashtbl.t }

let state () = { seen = Hashtbl.create 16 }

let auth_err code msg = Err.v code ("shard auth: " ^ msg)

let send_reject fd code msg =
  let payload =
    Printf.sprintf "omn-auth-err %s %s" (Err.code_name code) msg
  in
  try Frame.write fd payload with _ -> ()

let read_frame fd =
  match Frame.read fd with
  | Ok p -> Ok p
  | Error `Eof -> Error (auth_err Auth "peer closed during handshake")
  | Error `Timeout -> Error (auth_err Auth "handshake timed out")
  | Error `Corrupt -> Error (auth_err Proto "corrupt frame during handshake")

(* An "omn-auth-err <CODE> <msg>" frame from the peer becomes the same
   typed error locally. *)
let check_reject payload =
  match String.split_on_char ' ' payload with
  | "omn-auth-err" :: code :: rest ->
    let code = if String.equal code "E-PROTO" then Err.Proto else Err.Auth in
    Some (auth_err code ("rejected by peer: " ^ String.concat " " rest))
  | _ -> None

let transcript ~ver_c ~build_c ~nonce_c ~ver_s ~build_s ~nonce_s =
  Printf.sprintf "%d|%s|%s|%d|%s|%s" ver_c build_c nonce_c ver_s build_s nonce_s

let version_check ~mine ~theirs ~build_mine ~build_theirs =
  if theirs <> mine then
    Error
      (auth_err Proto
         (Printf.sprintf "protocol version mismatch: local %d, peer %d" mine theirs))
  else if not (String.equal build_theirs build_mine) then
    Error
      (auth_err Proto
         (Printf.sprintf "build mismatch: local %s, peer %s" build_mine build_theirs))
  else Ok ()

let ( let* ) = Result.bind

let send fd payload =
  try
    Frame.write fd payload;
    Ok ()
  with e -> Error (auth_err Auth ("send failed: " ^ Printexc.to_string e))

(* The peer's version and build, checked; a mismatch is also shipped
   to the peer. *)
let check_peer fd ~build ~ver ~build_peer =
  match
    version_check ~mine:protocol_version ~theirs:ver ~build_mine:build ~build_theirs:build_peer
  with
  | Ok () -> Ok ()
  | Error e ->
    send_reject fd Err.Proto e.Err.msg;
    Error e

let hello_frame build = Printf.sprintf "omn-hello %d %s" protocol_version build

let parse_hello payload =
  match String.split_on_char ' ' payload with
  | [ "omn-hello"; v; b ] -> Option.map (fun v -> (v, b)) (int_of_string_opt v)
  | _ -> None

let client_hello ~build fd =
  let* () = send fd (hello_frame build) in
  let* reply = read_frame fd in
  let* () = match check_reject reply with Some e -> Error e | None -> Ok () in
  match parse_hello reply with
  | Some (ver, build_peer) -> check_peer fd ~build ~ver ~build_peer
  | None ->
    send_reject fd Err.Proto "expected omn-hello";
    Error (auth_err Proto "expected omn-hello")

let server_hello ~build fd =
  let* payload = read_frame fd in
  let* () = match check_reject payload with Some e -> Error e | None -> Ok () in
  match parse_hello payload with
  | Some (ver, build_peer) ->
    let* () = check_peer fd ~build ~ver ~build_peer in
    send fd (hello_frame build)
  | None when String.starts_with ~prefix:"omn-auth1 " payload ->
    (* an authenticating dialer knocked on a key-less listener *)
    send_reject fd Err.Auth "listener has no key configured";
    Error (auth_err Auth "peer attempted auth but no key is configured")
  | None ->
    send_reject fd Err.Proto "expected omn-hello";
    Error (auth_err Proto "expected omn-hello")

(* Dialer side, with a key. *)
let client_keyed ~build ~key fd =
  let nonce_c = fresh_nonce () in
  let* () = send fd (Printf.sprintf "omn-auth1 %d %s %s" protocol_version build nonce_c) in
  let* a2 = read_frame fd in
  let* () = match check_reject a2 with Some e -> Error e | None -> Ok () in
  let* ver_s, build_s, nonce_s, mac_s =
    match String.split_on_char ' ' a2 with
    | [ "omn-auth2"; v; b; n; m ] -> (
      match int_of_string_opt v with
      | Some v -> Ok (v, b, n, m)
      | None -> Error (auth_err Proto "malformed omn-auth2 version"))
    | _ -> Error (auth_err Proto "expected omn-auth2")
  in
  let* () =
    version_check ~mine:protocol_version ~theirs:ver_s ~build_mine:build
      ~build_theirs:build_s
  in
  let tr =
    transcript ~ver_c:protocol_version ~build_c:build ~nonce_c ~ver_s ~build_s
      ~nonce_s
  in
  if not (const_time_eq mac_s (hmac ~key ("server|" ^ tr))) then begin
    send_reject fd Err.Auth "bad server MAC";
    Error (auth_err Auth "server failed key proof (wrong key?)")
  end
  else send fd (Printf.sprintf "omn-auth3 %s" (hmac ~key ("client|" ^ tr)))

(* Listener side, with a key. [st] carries the accepted-nonce table
   for replay rejection; share one state across all accepts of a
   listener. *)
let server_keyed ~build ~state:st ~key fd =
  let* a1 = read_frame fd in
  let* () = match check_reject a1 with Some e -> Error e | None -> Ok () in
  let* ver_c, build_c, nonce_c =
    match String.split_on_char ' ' a1 with
    | [ "omn-auth1"; v; b; n ] -> (
      match int_of_string_opt v with
      | Some v -> Ok (v, b, n)
      | None ->
        send_reject fd Err.Proto "malformed omn-auth1 version";
        Error (auth_err Proto "malformed omn-auth1 version"))
    | _ ->
      send_reject fd Err.Auth "authentication required";
      Error (auth_err Auth "peer did not authenticate")
  in
  let* () = check_peer fd ~build ~ver:ver_c ~build_peer:build_c in
  if Hashtbl.mem st.seen nonce_c then begin
    send_reject fd Err.Auth "replayed nonce";
    Error (auth_err Auth "replayed client nonce")
  end
  else begin
    Hashtbl.replace st.seen nonce_c ();
    let nonce_s = fresh_nonce () in
    let tr =
      transcript ~ver_c ~build_c ~nonce_c ~ver_s:protocol_version ~build_s:build
        ~nonce_s
    in
    let* () =
      send fd
        (Printf.sprintf "omn-auth2 %d %s %s %s" protocol_version build nonce_s
           (hmac ~key ("server|" ^ tr)))
    in
    let* a3 = read_frame fd in
    let* () = match check_reject a3 with Some e -> Error e | None -> Ok () in
    let* mac_c =
      match String.split_on_char ' ' a3 with
      | [ "omn-auth3"; m ] -> Ok m
      | _ ->
        send_reject fd Err.Proto "expected omn-auth3";
        Error (auth_err Proto "expected omn-auth3")
    in
    if const_time_eq mac_c (hmac ~key ("client|" ^ tr)) then Ok ()
    else begin
      send_reject fd Err.Auth "bad client MAC";
      Error (auth_err Auth "client failed key proof (wrong key?)")
    end
  end

let client ?(build = default_build) ?key fd =
  match key with Some key -> client_keyed ~build ~key fd | None -> client_hello ~build fd

let server ?(build = default_build) ~state ?key fd =
  match key with Some key -> server_keyed ~build ~state ~key fd | None -> server_hello ~build fd
