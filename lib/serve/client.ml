let chunk_of_row row =
  Tracing.Trace_codec.encode_binary
    (Tracing.Program.of_instrs (Array.to_list (Array.map Array.to_list row)))

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | Invalid_argument _ | Sys_error _ -> ()

let connect ?(retries = 100) ~socket () =
  ignore_sigpipe ();
  let rec go n =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      go (n - 1)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Unix.error_message e))
  in
  match go retries with
  | Ok _ as ok -> ok
  | Error _ as e -> e

let write_all ?(chunk = max_int) fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  try
    while !off < n do
      let len = min chunk (n - !off) in
      match Unix.write fd b !off len with
      | written -> off := !off + written
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Ok ()
  with Unix.Unix_error (e, _, _) ->
    Error ("connection lost: " ^ Unix.error_message e)

let send ?chunk fd frame = write_all ?chunk fd (Wire.encode frame)

let read_frame fd reader buf =
  let rec go () =
    match Wire.Reader.next reader with
    | Ok (Some f) -> Ok f
    | Error m -> Error m
    | Ok None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Error "connection closed by daemon"
      | n ->
        Wire.Reader.feed reader (Bytes.unsafe_to_string buf) ~pos:0 ~len:n;
        go ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) ->
        Error ("connection lost: " ^ Unix.error_message e))
  in
  go ()

let with_conn ~socket ?retries f =
  match connect ?retries ~socket () with
  | Error m -> Error m
  | Ok fd ->
    let r =
      try f fd
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    r

let ( let* ) = Result.bind

let run_tenant ~socket ?retries ?write_chunk ~hello rows =
  with_conn ~socket ?retries @@ fun fd ->
  let reader = Wire.Reader.create () in
  let buf = Bytes.create 65536 in
  let* () = send ?chunk:write_chunk fd (Wire.Hello hello) in
  let* resumed_from =
    match read_frame fd reader buf with
    | Ok (Wire.Hello_ok { resumed_from }) -> Ok resumed_from
    | Ok (Wire.Error m) -> Error m
    | Ok f -> Error (Format.asprintf "unexpected frame: %a" Wire.pp f)
    | Error m -> Error m
  in
  if resumed_from > Array.length rows then
    Error
      (Printf.sprintf "daemon is ahead of the trace: %d epochs fed, trace has %d"
         resumed_from (Array.length rows))
  else
    let rec feed l =
      if l >= Array.length rows then Ok ()
      else
        let* () =
          send ?chunk:write_chunk fd (Wire.Data (chunk_of_row rows.(l)))
        in
        feed (l + 1)
    in
    let sent =
      let* () = feed resumed_from in
      send ?chunk:write_chunk fd Wire.Fin
    in
    (* A daemon that failed the session mid-stream sent one ERROR and hung
       up, so a write may have failed first: that ERROR is the answer. *)
    match (read_frame fd reader buf, sent) with
    | Ok (Wire.Error m), _ | _, Error m -> Error m
    | Ok (Wire.Report r), Ok () -> Ok (resumed_from, r)
    | Ok f, Ok () -> Error (Format.asprintf "unexpected frame: %a" Wire.pp f)
    | Error m, Ok () -> Error m

let status ~socket ?retries () =
  with_conn ~socket ?retries @@ fun fd ->
  let reader = Wire.Reader.create () in
  let buf = Bytes.create 65536 in
  let* () = send fd Wire.Status in
  match read_frame fd reader buf with
  | Ok (Wire.Status_ok s) -> Ok s
  | Ok (Wire.Error m) -> Error m
  | Ok f -> Error (Format.asprintf "unexpected frame: %a" Wire.pp f)
  | Error m -> Error m
