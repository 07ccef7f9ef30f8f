type config = { iterations : int; seed : int; shape : Grid_gen.shape }

let default_config =
  { iterations = 200; seed = 1; shape = Grid_gen.default_shape }

type outcome = {
  iterations : int;
  errors : int;
  reports : int;
  hangups : int;
  failure : string option;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "%d streams: %d rejected, %d reported, %d hangups%s" o.iterations o.errors
    o.reports o.hangups
    (match o.failure with None -> "" | Some m -> ", FAILURE: " ^ m)

(* ------------------------------------------------------------------ *)
(* Valid base conversations.                                           *)

let lifeguard_of_profile : Grid_gen.profile -> Recovery.Snapshot.lifeguard =
  function
  | Alloc -> Addrcheck
  | Init -> Initcheck
  | Taint -> Taintcheck
  | Racy | Mixed -> Racecheck

let profiles : Grid_gen.profile array = [| Alloc; Init; Taint; Racy; Mixed |]

let base_frames ~shape ~tenant rst =
  let profile = profiles.(Random.State.int rst (Array.length profiles)) in
  let g = Grid_gen.grid ~shape profile rst in
  let rows = Recovery.Runner.rows_of (Grid.epochs g) in
  let hello =
    {
      Serve.Wire.tenant;
      lifeguard = lifeguard_of_profile profile;
      driver = `Sequential;
      state = `Functional;
      relaxed = Random.State.bool rst;
      threads = Grid.threads g;
    }
  in
  Serve.Wire.Hello hello
  :: (Array.to_list rows
     |> List.map (fun row -> Serve.Wire.Data (Serve.Client.chunk_of_row row)))
  @ [ Serve.Wire.Fin ]

(* ------------------------------------------------------------------ *)
(* Mutations.  Frame-level reshuffles first, then byte-level damage on
   the encoded stream; each iteration applies one of each family with
   independent probability, and always at least one of either.          *)

let swap l i j =
  let a = Array.of_list l in
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t;
  Array.to_list a

let mutate_frames rst frames =
  let n = List.length frames in
  match Random.State.int rst 3 with
  | 0 when n > 1 ->
    (* drop one *)
    let k = Random.State.int rst n in
    List.filteri (fun i _ -> i <> k) frames
  | 1 ->
    (* duplicate one *)
    let k = Random.State.int rst n in
    List.concat_map
      (fun (i, f) -> if i = k then [ f; f ] else [ f ])
      (List.mapi (fun i f -> (i, f)) frames)
  | _ when n > 1 ->
    (* reorder two *)
    swap frames (Random.State.int rst n) (Random.State.int rst n)
  | _ -> frames

let mutate_bytes rst s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int rst 3 with
    | 0 ->
      (* truncate: anywhere, including mid-header *)
      String.sub s 0 (Random.State.int rst n)
    | 1 ->
      (* flip one bit — length prefixes, tags and payloads alike *)
      let b = Bytes.of_string s in
      let k = Random.State.int rst n in
      Bytes.set b k
        (Char.chr (Char.code (Bytes.get b k) lxor (1 lsl Random.State.int rst 8)));
      Bytes.unsafe_to_string b
    | _ ->
      (* inject garbage at a random cut *)
      let k = Random.State.int rst (n + 1) in
      let len = 1 + Random.State.int rst 16 in
      let junk = String.init len (fun _ -> Char.chr (Random.State.int rst 256)) in
      String.sub s 0 k ^ junk ^ String.sub s k (n - k)

let mutate rst frames =
  let frames, touched =
    if Random.State.int rst 4 < 3 then (mutate_frames rst frames, true)
    else (frames, false)
  in
  let stream = String.concat "" (List.map Serve.Wire.encode frames) in
  if (not touched) || Random.State.int rst 4 < 2 then mutate_bytes rst stream
  else stream

(* ------------------------------------------------------------------ *)
(* Playing a stream at the daemon, torn-write style.                   *)

let write_stream rst fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < n do
       let len = min (1 + Random.State.int rst 97) (n - !off) in
       match Unix.write fd b !off len with
       | written -> off := !off + written
       | exception Unix.Unix_error (EINTR, _, _) -> ()
     done
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
     (* The daemon already rejected and hung up; whatever it sent first
        is still readable. *)
     ());
  try Unix.shutdown fd SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let read_responses fd =
  let reader = Serve.Wire.Reader.create () in
  let buf = Bytes.create 4096 in
  let rec go acc =
    match Serve.Wire.Reader.next reader with
    | Ok (Some f) -> go (f :: acc)
    | Error m -> Error ("daemon sent garbage: " ^ m)
    | Ok None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Ok (List.rev acc)
      | n ->
        Serve.Wire.Reader.feed reader (Bytes.unsafe_to_string buf) ~pos:0
          ~len:n;
        go acc
      | exception Unix.Unix_error (EINTR, _, _) -> go acc
      | exception Unix.Unix_error (ECONNRESET, _, _) -> Ok (List.rev acc))
  in
  go []

(* The containment contract on what the daemon said back: HELLO_OK and
   STATUS_OK may appear mid-conversation, but a REPORT or ERROR frame is
   terminal — nothing after it — and at most one of either arrives.      *)
let classify = function
  | Error m -> Error m
  | Ok frames ->
    let rec walk = function
      | [] -> Ok `Hangup
      | [ Serve.Wire.Report _ ] -> Ok `Report
      | [ Serve.Wire.Error _ ] -> Ok `Error
      | (Serve.Wire.Hello_ok _ | Serve.Wire.Status_ok _) :: rest -> walk rest
      | f :: _ :: _ when (match f with
          | Serve.Wire.Report _ | Serve.Wire.Error _ -> true
          | _ -> false) ->
        Error
          (Format.asprintf "daemon spoke past a terminal frame: %a"
             Serve.Wire.pp f)
      | f :: _ ->
        Error (Format.asprintf "unexpected daemon frame: %a" Serve.Wire.pp f)
    in
    walk frames

(* ------------------------------------------------------------------ *)

let connect socket =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error ("cannot connect: " ^ Unix.error_message e)

let control_check ~socket rst shape =
  let g = Grid_gen.grid ~shape Grid_gen.Alloc rst in
  let rows = Recovery.Runner.rows_of (Grid.epochs g) in
  let expected =
    Serve.Report.addrcheck (Lifeguards.Addrcheck.run (Grid.epochs g))
  in
  let hello =
    {
      Serve.Wire.tenant = "control";
      lifeguard = Recovery.Snapshot.Addrcheck;
      driver = `Sequential;
      state = `Functional;
      relaxed = false;
      threads = Grid.threads g;
    }
  in
  match Serve.Client.run_tenant ~socket ~hello rows with
  | Error m -> Some ("control tenant failed: " ^ m)
  | Ok (_, report) ->
    if String.equal report expected then None
    else Some "control tenant's report diverged from the batch run"

let run ?(config = default_config) () =
  let labels = [ ("campaign", "serve") ] in
  let m_streams = Obs.Counter.make ~labels "qa.serve.streams" in
  let m_errors = Obs.Counter.make ~labels "qa.serve.errors" in
  let m_reports = Obs.Counter.make ~labels "qa.serve.reports" in
  let socket = Filename.temp_file "serve_fuzz" ".sock" in
  Sys.remove socket;
  let stop = Atomic.make `Run in
  let cfg =
    Serve.Daemon.config ~socket
      ~policy:
        (Serve.Policy.v
           ~max_sessions:(config.iterations + 2)
           ~max_queued:64)
      ()
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~stop:(fun () -> Atomic.get stop) cfg)
  in
  let rst = Random.State.make [| config.seed |] in
  let errors = ref 0 and reports = ref 0 and hangups = ref 0 in
  let failure = ref None in
  let iterations = ref 0 in
  (* Wait for the socket before the first shot. *)
  (match Serve.Client.status ~socket () with
  | Ok _ -> ()
  | Error m -> failure := Some ("daemon never came up: " ^ m));
  while !failure = None && !iterations < config.iterations do
    let tenant = Printf.sprintf "fz%d" !iterations in
    let frames = base_frames ~shape:config.shape ~tenant rst in
    let stream = mutate rst frames in
    (match connect socket with
    | Error m -> failure := Some m
    | Ok fd ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_stream rst fd stream;
          Obs.Counter.incr m_streams;
          match classify (read_responses fd) with
          | Ok `Error ->
            incr errors;
            Obs.Counter.incr m_errors
          | Ok `Report ->
            incr reports;
            Obs.Counter.incr m_reports
          | Ok `Hangup -> incr hangups
          | Error m ->
            failure := Some (Printf.sprintf "stream %d: %s" !iterations m)));
    (* The daemon must still be standing. *)
    if !failure = None then (
      match Serve.Client.status ~socket ~retries:5 () with
      | Ok _ -> ()
      | Error m ->
        failure :=
          Some (Printf.sprintf "daemon down after stream %d: %s" !iterations m));
    incr iterations
  done;
  if !failure = None then failure := control_check ~socket rst config.shape;
  Atomic.set stop `Quit;
  Domain.join daemon;
  if Sys.file_exists socket then Sys.remove socket;
  {
    iterations = !iterations;
    errors = !errors;
    reports = !reports;
    hangups = !hangups;
    failure = !failure;
  }
