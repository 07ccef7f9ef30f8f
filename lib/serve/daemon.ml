module Snapshot = Recovery.Snapshot

type config = {
  socket : string;
  domains : int option;
  state_dir : string option;
  checkpoint_every : int option;
  evict_idle_after : int option;
  policy : Policy.t;
}

let config ~socket ?domains ?state_dir ?checkpoint_every ?evict_idle_after
    ?(policy = Policy.default) () =
  (match checkpoint_every with
  | Some n when n < 1 -> invalid_arg "Daemon.config: checkpoint_every must be >= 1"
  | _ -> ());
  (match evict_idle_after with
  | Some n when n < 1 -> invalid_arg "Daemon.config: evict_idle_after must be >= 1"
  | _ -> ());
  if (checkpoint_every <> None || evict_idle_after <> None) && state_dir = None
  then invalid_arg "Daemon.config: checkpointing and eviction need state_dir";
  { socket; domains; state_dir; checkpoint_every; evict_idle_after; policy }

(* Telemetry: the daemon's own counters, plus everything the engines and
   recovery layer emit under the installed sink. *)
let m_accepted = Obs.Counter.make "serve.accepted"
let m_frames = Obs.Counter.make "serve.frames"
let m_rows = Obs.Counter.make "serve.rows"
let m_reports = Obs.Counter.make "serve.reports"
let m_errors = Obs.Counter.make "serve.errors"
let m_evictions = Obs.Counter.make "serve.evictions"
let g_sessions = Obs.Gauge.make "serve.sessions"

type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  buf : Bytes.t;
  mutable tenant : string option;  (* set once HELLO is accepted *)
  mutable open_ : bool;
}

type t = {
  cfg : config;
  pool : Butterfly.Domain_pool.t option;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  sessions : Session.t Table.t;
  attached : (string, conn) Hashtbl.t;
  idle : (string, int) Hashtbl.t;  (* detached tenants: ticks since activity *)
  mem : Obs.Sink.t;  (* status endpoint's registry view *)
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Blocking write of a whole frame; SO_SNDTIMEO bounds a stuck client,
   and any failure just closes the connection — the daemon never lets
   one tenant's socket wedge the loop. *)
let send t conn frame =
  if conn.open_ then
    try
      let s = Wire.encode frame in
      let n = String.length s in
      let b = Bytes.unsafe_of_string s in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write conn.fd b !off (n - !off)
      done;
      true
    with Unix.Unix_error _ ->
      conn.open_ <- false;
      close_fd conn.fd;
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      (match conn.tenant with
      | Some tenant ->
        Hashtbl.remove t.attached tenant;
        if Table.mem t.sessions tenant then Hashtbl.replace t.idle tenant 0
      | None -> ());
      false
  else false

let detach t conn =
  conn.open_ <- false;
  close_fd conn.fd;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  match conn.tenant with
  | Some tenant ->
    Hashtbl.remove t.attached tenant;
    (* The session survives the disconnect; it keeps draining and can be
       reattached, evicted, or idle-collected. *)
    if Table.mem t.sessions tenant then Hashtbl.replace t.idle tenant 0
  | None -> ()

(* Connection-level rejection: the session (if any) is untouched. *)
let reject t conn msg =
  Obs.Counter.incr m_errors;
  ignore (send t conn (Wire.Error msg));
  detach t conn

let drop_session t tenant =
  Table.remove t.sessions tenant;
  Hashtbl.remove t.idle tenant;
  Hashtbl.remove t.attached tenant;
  Obs.Gauge.set g_sessions (float_of_int (Table.live t.sessions))

(* Session-level failure: a corrupt stream leaves the engine's frontier
   unknowable, so the whole session goes with the connection.  Other
   tenants are untouched — the per-session fuzz battery pins this. *)
let fail_session t conn msg =
  (match conn.tenant with Some tn -> drop_session t tn | None -> ());
  reject t conn msg

(* A delivered REPORT retires the tenant's periodic snapshot too: left on
   disk, it would revive this finished stream's state (at its old
   frontier) under the next session that reuses the tenant id.  If the
   send fails, the snapshot stays so the client can resume and collect. *)
let finish_session t conn tenant session =
  let report = Session.report session in
  Obs.Counter.incr m_reports;
  let delivered = send t conn (Wire.Report report) in
  detach t conn;
  drop_session t tenant;
  match t.cfg.state_dir with
  | Some dir when delivered -> (
    let snap = Snapshot.session_path ~dir ~tenant (Session.lifeguard session) in
    try Sys.remove snap with Sys_error _ -> ())
  | _ -> ()

let session_of t conn =
  match conn.tenant with
  | None -> None
  | Some tenant -> Table.find t.sessions tenant

let status_json t =
  let sessions =
    Table.fold t.sessions
      (fun acc tenant s ->
        let extra =
          [
            ("connected", Obs.Json.Bool (Hashtbl.mem t.attached tenant));
            ("idle",
             Obs.Json.Int
               (Option.value (Hashtbl.find_opt t.idle tenant) ~default:0));
          ]
        in
        (match Session.stats_json s with
        | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ extra)
        | j -> j)
        :: acc)
      []
    |> List.rev
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("live", Obs.Json.Int (Table.live t.sessions));
         ("sessions", Obs.Json.List sessions);
         ("prometheus",
          Obs.Json.String (Obs.Snapshot.to_prometheus (Obs.Sink.snapshot t.mem)));
       ])

let evict_session t tenant session =
  match t.cfg.state_dir with
  | None -> false
  | Some dir -> (
    match Session.evict session ~dir with
    | Ok _bytes ->
      Obs.Counter.incr m_evictions;
      drop_session t tenant;
      true
    | Error _ -> false)

(* Make room for one more session, per policy: evict the longest-idle
   detached session, or refuse. *)
let admit t =
  let live = Table.live t.sessions in
  let candidates =
    Table.fold t.sessions
      (fun acc tenant _ ->
        {
          Policy.key = tenant;
          detached = not (Hashtbl.mem t.attached tenant);
          idle = Option.value (Hashtbl.find_opt t.idle tenant) ~default:0;
        }
        :: acc)
      []
  in
  match Policy.evictee t.cfg.policy ~live candidates with
  | None when live < Policy.max_sessions t.cfg.policy -> Ok ()
  | None -> Error (Printf.sprintf "daemon at capacity: %d sessions" live)
  | Some key -> (
    match Table.find t.sessions key with
    | Some s when evict_session t key s -> Ok ()
    | _ -> Error (Printf.sprintf "daemon at capacity: %d sessions" live))

let handle_hello t conn (h : Wire.hello) =
  match conn.tenant with
  | Some _ -> reject t conn "bad stream: duplicate HELLO"
  | None -> (
    match Table.find t.sessions h.tenant with
    | Some s ->
      if Hashtbl.mem t.attached h.tenant then
        reject t conn (Printf.sprintf "tenant %s already connected" h.tenant)
      else if Session.lifeguard s <> h.lifeguard then
        reject t conn
          (Printf.sprintf "tenant %s has a %s session, not %s" h.tenant
             (Snapshot.lifeguard_to_string (Session.lifeguard s))
             (Snapshot.lifeguard_to_string h.lifeguard))
      else if Session.threads s <> h.threads then
        reject t conn
          (Printf.sprintf "session has %d threads, hello has %d"
             (Session.threads s) h.threads)
      else begin
        conn.tenant <- Some h.tenant;
        Hashtbl.replace t.attached h.tenant conn;
        Hashtbl.remove t.idle h.tenant;
        if
          send t conn
            (Wire.Hello_ok { resumed_from = Session.frontier s })
          && Session.finished s
        then
          (* The client vanished between FIN and REPORT last time; the
             cached report is still owed. *)
          finish_session t conn h.tenant s
      end
    | None -> (
      match admit t with
      | Error m -> reject t conn m
      | Ok () -> (
        match
          Session.create ?pool:t.pool ?state_dir:t.cfg.state_dir h
        with
        | Error m -> reject t conn m
        | Ok s ->
          conn.tenant <- Some h.tenant;
          Table.add t.sessions h.tenant s;
          Hashtbl.replace t.attached h.tenant conn;
          Obs.Gauge.set g_sessions (float_of_int (Table.live t.sessions));
          ignore
            (send t conn
               (Wire.Hello_ok { resumed_from = Session.frontier s })))))

let handle_frame t conn frame =
  Obs.Counter.incr m_frames;
  match frame with
  | Wire.Hello h -> handle_hello t conn h
  | Wire.Status -> ignore (send t conn (Wire.Status_ok (status_json t)))
  | Wire.Data chunk -> (
    match session_of t conn with
    | None -> reject t conn "bad stream: DATA before HELLO"
    | Some s -> (
      match Session.enqueue s chunk with
      | Ok rows -> Obs.Counter.add m_rows rows
      | Error m -> fail_session t conn m))
  | Wire.Fin -> (
    match session_of t conn with
    | None -> reject t conn "bad stream: FIN before HELLO"
    | Some s ->
      Session.fin s;
      (* Short streams may be fully fed already; don't make the client
         wait a rotation for its report. *)
      if Session.finished s then
        finish_session t conn (Option.get conn.tenant) s)
  | Wire.Hello_ok _ | Wire.Report _ | Wire.Status_ok _ | Wire.Error _ ->
    reject t conn "bad stream: unexpected frame"

let throttled t conn =
  match session_of t conn with
  | None -> false
  | Some s -> Policy.throttled t.cfg.policy ~queued:(Session.queued s)

(* Decode and dispatch every complete frame the reader holds, stopping
   at a partial frame or once the session hits its queue bound (the
   leftover stays buffered until the rotation drains the queue). *)
let rec drain_frames t conn =
  if conn.open_ && not (throttled t conn) then
    match Wire.Reader.next conn.reader with
    | Ok None -> ()
    | Ok (Some frame) ->
      handle_frame t conn frame;
      drain_frames t conn
    | Error m -> fail_session t conn m

let read_conn t conn =
  match Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) with
  | 0 -> detach t conn
  | n ->
    Wire.Reader.feed conn.reader (Bytes.unsafe_to_string conn.buf) ~pos:0
      ~len:n;
    drain_frames t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> detach t conn

let accept_conns t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      (try Unix.setsockopt_float fd SO_SNDTIMEO 5.0
       with Unix.Unix_error _ -> ());
      Obs.Counter.incr m_accepted;
      t.conns <-
        t.conns
        @ [
            {
              fd;
              reader = Wire.Reader.create ();
              buf = Bytes.create 65536;
              tenant = None;
              open_ = true;
            };
          ];
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let rotate t =
  ignore
    (Table.tick t.sessions (fun tenant s ->
         let worked = Session.step s in
         if worked then begin
           (match (t.cfg.checkpoint_every, t.cfg.state_dir) with
           | Some every, Some dir when Session.fed s mod every = 0 ->
             (* Periodic checkpoint at the sealed frontier: a killed
                daemon loses at most [every - 1] fed epochs per tenant,
                and reconnecting clients resume from here. *)
             (match Session.checkpoint s ~dir with
             | Ok _ -> ()
             | Error _ -> ())
           | _ -> ());
           match Hashtbl.find_opt t.attached tenant with
           | Some conn ->
             if Session.finished s then finish_session t conn tenant s
             (* Feeding may have unthrottled the session; pick the
                buffered frames back up. *)
             else drain_frames t conn
           | None -> Hashtbl.replace t.idle tenant 0
         end;
         worked))

let collect_idle t =
  match (t.cfg.evict_idle_after, t.cfg.state_dir) with
  | Some after, Some _ ->
    let expired =
      Hashtbl.fold
        (fun tenant ticks acc ->
          if ticks + 1 >= after then tenant :: acc
          else begin
            Hashtbl.replace t.idle tenant (ticks + 1);
            acc
          end)
        t.idle []
    in
    List.iter
      (fun tenant ->
        match Table.find t.sessions tenant with
        | Some s when Hashtbl.mem t.attached tenant = false ->
          ignore (evict_session t tenant s)
        | _ -> ())
      expired
  | _ ->
    (* Still age the counters so oversubscription eviction prefers the
       longest-detached session. *)
    Hashtbl.iter (fun tenant ticks -> Hashtbl.replace t.idle tenant (ticks + 1))
      (Hashtbl.copy t.idle)

let work_pending t =
  Table.fold t.sessions (fun acc _ s -> acc || Session.queued s > 0) false
  || List.exists (fun c -> Wire.Reader.buffered c.reader > 0) t.conns

let shutdown t ~evict =
  if evict then
    List.iter
      (fun tenant ->
        match Table.find t.sessions tenant with
        | Some s -> ignore (evict_session t tenant s)
        | None -> ())
      (Table.keys t.sessions);
  List.iter (fun c -> close_fd c.fd) t.conns;
  close_fd t.listen_fd;
  if not evict then ()
  else if Sys.file_exists t.cfg.socket then Sys.remove t.cfg.socket

let rec loop stop t =
  match stop () with
  | `Abort -> shutdown t ~evict:false
  | `Quit -> shutdown t ~evict:true
  | `Run ->
    let read_fds =
      t.listen_fd
      :: List.filter_map
           (fun c -> if throttled t c then None else Some c.fd)
           t.conns
    in
    let timeout = if work_pending t then 0.0 else 0.02 in
    let ready, _, _ =
      match Unix.select read_fds [] [] timeout with
      | r -> r
      | exception Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.listen_fd ready then accept_conns t;
    List.iter
      (fun c -> if c.open_ && List.mem c.fd ready then read_conn t c)
      t.conns;
    rotate t;
    collect_idle t;
    loop stop t

let run ?(stop = fun () -> `Run) cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | Invalid_argument _ | Sys_error _ -> ());
  let with_pool f =
    match cfg.domains with
    | None -> f None
    | Some n ->
      Butterfly.Domain_pool.with_pool ~name:"serve" ~domains:n (fun p ->
          f (Some p))
  in
  with_pool @@ fun pool ->
  (match cfg.state_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | Some _ | None -> ());
  let mem = Obs.Sink.memory () in
  Obs.with_sink (Obs.Sink.tee (Obs.sink ()) mem) @@ fun () ->
  if Sys.file_exists cfg.socket then Sys.remove cfg.socket;
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (ADDR_UNIX cfg.socket);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     close_fd listen_fd;
     raise e);
  let t =
    {
      cfg;
      pool;
      listen_fd;
      conns = [];
      sessions = Table.create ();
      attached = Hashtbl.create 16;
      idle = Hashtbl.create 16;
      mem;
    }
  in
  loop stop t
