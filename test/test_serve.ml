(* The serving stack, bottom-up:

   - the wire protocol: frame round-trips under arbitrary write
     boundaries, stable rejection of malformed input;
   - the pure pieces: admission/backpressure policy, fairness rotation;
   - sessions without a socket: batch-equivalent feeding, evict/revive,
     the snapshot rejection catalogue;
   - the daemon itself, hosted in a domain: an 8-tenant concurrent
     differential battery (every tenant's report byte-identical to the
     solo batch run, including under 3-byte shredded writes), crash at a
     sealed-epoch frontier + reconnect/resume, oversubscription
     eviction, per-session fault containment, and the STATUS surface. *)

module Wire = Serve.Wire
module Session = Serve.Session
module Daemon = Serve.Daemon
module Client = Serve.Client
module Policy = Serve.Policy
module Table = Serve.Table
module Report = Serve.Report
module Runner = Recovery.Runner
module Snapshot = Recovery.Snapshot
module Epochs = Butterfly.Epochs

let check = Alcotest.check
let checks = Alcotest.(check string)
let checkb = Testutil.checkb
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Fixtures: deterministic workload programs, one per tenant.           *)

let program ~seed ~threads ~scale =
  let profile =
    match Workloads.Registry.find "lu" with
    | Some p -> p
    | None -> Alcotest.fail "lu workload missing"
  in
  Machine.Heartbeat.insert ~every:16
    (Workloads.Workload.generate_program profile ~threads ~scale ~seed)

let rows_of_program p = Runner.rows_of (Epochs.of_program p)

(* The solo batch reference: sequential driver — every other driver
   must match it byte-for-byte, so it serves as the oracle for all
   tenant configs. *)
let batch_report lifeguard ~relaxed p =
  let epochs = Epochs.of_program p in
  let (Report.Entry e) = Report.find lifeguard in
  e.json
    (Runner.run (e.ops ~relaxed ()) ~threads:(Epochs.threads epochs)
       (Epochs.iter_rows epochs))

let hello ?(lifeguard = Snapshot.Addrcheck) ?(driver = `Sequential)
    ?(relaxed = false) ~tenant ~threads () =
  { Wire.tenant; lifeguard; driver; state = `Functional; relaxed; threads }

(* ------------------------------------------------------------------ *)
(* Wire: round-trips and rejections.                                   *)

let sample_frames =
  [
    Wire.Hello
      (hello ~tenant:"alpha-1" ~lifeguard:Snapshot.Taintcheck ~driver:`Wavefront
         ~relaxed:true ~threads:7 ());
  ]
  @ List.map
      (fun lifeguard -> Wire.Hello (hello ~tenant:"t" ~lifeguard ~threads:2 ()))
      Snapshot.all
  @ [
    Wire.Hello_ok { resumed_from = 42 };
    Wire.Data "\x00\x01\x02binary payload\xff";
    Wire.Fin;
    Wire.Report {|{"lifeguard":"addrcheck","checked":3}|};
    Wire.Error "bad trace chunk: bad magic";
    Wire.Status;
    Wire.Status_ok {|{"live":0}|};
  ]

let frame_testable =
  Alcotest.testable Wire.pp (fun a b ->
      (* [pp] elides payloads, so compare structurally. *)
      a = b)

let wire_roundtrip () =
  List.iter
    (fun f ->
      let encoded = Wire.encode f in
      let reader = Wire.Reader.create () in
      Wire.Reader.feed reader encoded ~pos:0 ~len:(String.length encoded);
      match Wire.Reader.next reader with
      | Ok (Some got) ->
        check frame_testable "roundtrip" f got;
        (match f with
        | Wire.Hello h ->
          (* Length, tag, version, the tenant (one length byte here),
             then the lifeguard's position in [Snapshot.all]. *)
          let rec index i = function
            | [] -> Alcotest.fail "lifeguard missing from Snapshot.all"
            | lg :: rest -> if lg = h.lifeguard then i else index (i + 1) rest
          in
          check Alcotest.int "hello lifeguard byte" (index 0 Snapshot.all)
            (Char.code encoded.[4 + 3 + String.length h.tenant])
        | _ -> ());
        (match Wire.Reader.next reader with
        | Ok None -> ()
        | _ -> Alcotest.fail "leftover bytes after one frame")
      | _ -> Alcotest.fail "complete frame not decoded")
    sample_frames

let wire_torn_delivery () =
  (* The whole conversation shredded one byte at a time: the reader must
     reassemble the same sequence. *)
  let stream = String.concat "" (List.map Wire.encode sample_frames) in
  let reader = Wire.Reader.create () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Wire.Reader.feed reader stream ~pos:i ~len:1;
      let rec drain () =
        match Wire.Reader.next reader with
        | Ok (Some f) ->
          got := f :: !got;
          drain ()
        | Ok None -> ()
        | Error m -> Alcotest.fail ("reader error: " ^ m)
      in
      drain ())
    stream;
  check
    (Alcotest.list frame_testable)
    "shredded stream" sample_frames (List.rev !got)

let wire_rejects () =
  let expect_err body prefix =
    match Wire.decode_body body with
    | Error m ->
      checkb
        (Printf.sprintf "%S starts with %S" m prefix)
        true
        (String.length m >= String.length prefix
        && String.sub m 0 (String.length prefix) = prefix)
    | Ok f -> Alcotest.fail (Format.asprintf "decoded %a" Wire.pp f)
  in
  expect_err "\x2a" "bad frame: ";
  (* unknown tag *)
  expect_err "" "bad frame: ";
  (* empty body *)
  expect_err "\x01\x63" "bad frame: unsupported protocol version 99";
  expect_err "\x04\x00" "bad frame: ";
  (* trailing bytes after FIN *)
  let truncated_hello =
    let full = Wire.encode (List.hd sample_frames) in
    String.sub full 4 (String.length full - 8)
  in
  expect_err truncated_hello "bad frame: "

let wire_oversized_sticky () =
  let reader = Wire.Reader.create () in
  (* A length prefix claiming 64 MiB. *)
  Wire.Reader.feed reader "\x04\x00\x00\x00" ~pos:0 ~len:4;
  (match Wire.Reader.next reader with
  | Error m ->
    checks "oversized" "oversized frame: 67108864 bytes (limit 16777216)" m
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* Sticky: even valid input afterwards keeps failing. *)
  let fin = Wire.encode Wire.Fin in
  Wire.Reader.feed reader fin ~pos:0 ~len:(String.length fin);
  match Wire.Reader.next reader with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reader recovered from a framing error"

let gen_frame =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_bound 40) in
  let tenant =
    map
      (fun s -> if s = "" then "t" else s)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
  in
  frequency
    [
      ( 2,
        let* t = tenant in
        let* lg =
          oneofl
            [ Snapshot.Addrcheck; Snapshot.Initcheck; Snapshot.Taintcheck;
              Snapshot.Racecheck ]
        in
        let* driver = oneofl [ `Sequential; `Pooled ] in
        let* relaxed = bool in
        let* threads = int_range 1 16 in
        return
          (Wire.Hello
             { Wire.tenant = t; lifeguard = lg; driver; state = `Functional;
               relaxed; threads }) );
      (1, map (fun n -> Wire.Hello_ok { resumed_from = n }) (int_bound 1000));
      (2, map (fun s -> Wire.Data s) str);
      (1, return Wire.Fin);
      (1, map (fun s -> Wire.Report s) str);
      (1, map (fun s -> Wire.Error s) str);
      (1, return Wire.Status);
      (1, map (fun s -> Wire.Status_ok s) str);
    ]

let arb_frames_and_cuts =
  QCheck.make
    ~print:(fun (fs, _) ->
      String.concat "; " (List.map (Format.asprintf "%a" Wire.pp) fs))
    QCheck.Gen.(
      let* fs = list_size (int_range 1 8) gen_frame in
      let* cuts = list_size (int_bound 12) (int_bound 2000) in
      return (fs, cuts))

let prop_chunked_roundtrip (frames, cuts) =
  let stream = String.concat "" (List.map Wire.encode frames) in
  let reader = Wire.Reader.create () in
  let got = ref [] in
  let drain () =
    let rec go () =
      match Wire.Reader.next reader with
      | Ok (Some f) ->
        got := f :: !got;
        go ()
      | Ok None -> ()
      | Error m -> Alcotest.fail ("reader error: " ^ m)
    in
    go ()
  in
  (* Split the stream at the generated cut points (modulo length). *)
  let n = String.length stream in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let pos = ref 0 in
  List.iter
    (fun c ->
      if c > !pos then begin
        Wire.Reader.feed reader stream ~pos:!pos ~len:(c - !pos);
        drain ();
        pos := c
      end)
    cuts;
  if !pos < n then begin
    Wire.Reader.feed reader stream ~pos:!pos ~len:(n - !pos);
    drain ()
  end;
  List.rev !got = frames

(* ------------------------------------------------------------------ *)
(* Policy and table.                                                   *)

let policy_throttle () =
  let p = Policy.v ~max_sessions:4 ~max_queued:8 in
  checkb "below" false (Policy.throttled p ~queued:7);
  checkb "at" true (Policy.throttled p ~queued:8);
  checkb "above" true (Policy.throttled p ~queued:9);
  match Policy.v ~max_sessions:0 ~max_queued:1 with
  | _ -> Alcotest.fail "max_sessions 0 accepted"
  | exception Invalid_argument _ -> ()

let policy_eviction () =
  let p = Policy.v ~max_sessions:2 ~max_queued:8 in
  let c key detached idle = { Policy.key; detached; idle } in
  check
    (Alcotest.option Alcotest.string)
    "under capacity" None
    (Policy.evictee p ~live:1 [ c "a" true 9 ]);
  check
    (Alcotest.option Alcotest.string)
    "longest idle detached" (Some "b")
    (Policy.evictee p ~live:2 [ c "a" true 3; c "b" true 7; c "c" false 9 ]);
  check
    (Alcotest.option Alcotest.string)
    "ties break on key" (Some "a")
    (Policy.evictee p ~live:2 [ c "b" true 5; c "a" true 5 ]);
  check
    (Alcotest.option Alcotest.string)
    "all connected: nobody" None
    (Policy.evictee p ~live:2 [ c "a" false 3; c "b" false 7 ])

let table_rotation () =
  let t = Table.create () in
  List.iter (fun k -> Table.add t k (ref 0)) [ "a"; "b"; "c" ];
  let first = ref [] in
  for _ = 1 to 3 do
    let seen = ref [] in
    ignore
      (Table.tick t (fun k r ->
           if !seen = [] then first := k :: !first;
           seen := k :: !seen;
           incr r;
           true))
  done;
  check
    (Alcotest.list Alcotest.string)
    "start rotates" [ "a"; "b"; "c" ] (List.rev !first);
  Table.iter t (fun k r -> checki (k ^ " visited each tick") 3 !r);
  (* Removal mid-tick is safe, including self-removal. *)
  let visited = ref 0 in
  ignore
    (Table.tick t (fun k _ ->
         incr visited;
         Table.remove t k;
         true));
  checki "all visited despite removals" 3 !visited;
  checki "empty after" 0 (Table.live t)

(* ------------------------------------------------------------------ *)
(* Sessions without a socket.                                          *)

let session_create_rejects () =
  let expect msg h =
    match Session.create h with
    | Error m -> checks "create error" msg m
    | Ok _ -> Alcotest.fail "bad hello accepted"
  in
  expect "bad hello: invalid tenant id \"no/slash\""
    (hello ~tenant:"no/slash" ~threads:2 ());
  expect "bad hello: threads must be >= 1" (hello ~tenant:"ok" ~threads:0 ());
  expect "bad hello: driver needs a daemon started with --domains"
    (hello ~tenant:"ok" ~driver:`Pooled ~threads:2 ());
  expect "bad hello: state=flat is no longer supported"
    { (hello ~tenant:"ok" ~threads:2 ()) with state = `Flat }

let session_matches_batch () =
  let p = program ~seed:11 ~threads:3 ~scale:100 in
  let rows = rows_of_program p in
  List.iter
    (fun (lifeguard, relaxed) ->
      let h =
        hello ~tenant:"solo" ~lifeguard ~relaxed
          ~threads:(Tracing.Program.threads p) ()
      in
      match Session.create h with
      | Error m -> Alcotest.fail m
      | Ok s ->
        Array.iter
          (fun row ->
            match Session.enqueue s (Client.chunk_of_row row) with
            | Ok n -> checki "one row per chunk" 1 n
            | Error m -> Alcotest.fail m)
          rows;
        checki "queued" (Array.length rows) (Session.queued s);
        while Session.step s do () done;
        checki "fed" (Array.length rows) (Session.fed s);
        Session.fin s;
        checkb "finished" true (Session.finished s);
        checks
          (Snapshot.lifeguard_to_string lifeguard ^ " == batch")
          (batch_report lifeguard ~relaxed p)
          (Session.report s))
    [ (Snapshot.Addrcheck, false); (Snapshot.Initcheck, false);
      (Snapshot.Taintcheck, false); (Snapshot.Taintcheck, true);
      (Snapshot.Racecheck, false) ]

let session_stream_rejects () =
  let p = program ~seed:3 ~threads:2 ~scale:60 in
  let h = hello ~tenant:"rj" ~threads:2 () in
  let s = Result.get_ok (Session.create h) in
  (match Session.enqueue s "not a trace" with
  | Error m -> checks "bad chunk" "bad trace chunk: bad magic" m
  | Ok _ -> Alcotest.fail "garbage chunk accepted");
  let four = program ~seed:3 ~threads:4 ~scale:60 in
  (match Session.enqueue s (Client.chunk_of_row (rows_of_program four).(0)) with
  | Error m -> checks "threads" "bad trace chunk: 4 threads, session has 2" m
  | Ok _ -> Alcotest.fail "thread mismatch accepted");
  (match Session.enqueue s (Client.chunk_of_row (rows_of_program p).(0)) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Session.fin s;
  match Session.enqueue s (Client.chunk_of_row (rows_of_program p).(1)) with
  | Error m -> checks "after fin" "bad stream: DATA after FIN" m
  | Ok _ -> Alcotest.fail "DATA after FIN accepted"

let with_state_dir f =
  let dir = Filename.temp_file "serve_state" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let session_evict_revive () =
  with_state_dir @@ fun dir ->
  let p = program ~seed:21 ~threads:3 ~scale:120 in
  let rows = rows_of_program p in
  let h =
    hello ~tenant:"ev" ~lifeguard:Snapshot.Initcheck
      ~threads:(Tracing.Program.threads p) ()
  in
  let s = Result.get_ok (Session.create ~state_dir:dir h) in
  checki "fresh frontier" 0 (Session.frontier s);
  let cut = Array.length rows / 2 in
  for l = 0 to cut - 1 do
    (match Session.enqueue s (Client.chunk_of_row rows.(l)) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    ignore (Session.step s)
  done;
  (match Session.evict s ~dir with
  | Ok bytes -> checkb "snapshot non-empty" true (bytes > 0)
  | Error m -> Alcotest.fail m);
  checkb "session-keyed file" true
    (Sys.file_exists
       (Snapshot.session_path ~dir ~tenant:"ev" Snapshot.Initcheck));
  (* Revive and finish: identical to the uninterrupted batch run. *)
  let s' = Result.get_ok (Session.create ~state_dir:dir h) in
  checki "revived frontier" cut (Session.frontier s');
  for l = cut to Array.length rows - 1 do
    match Session.enqueue s' (Client.chunk_of_row rows.(l)) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  Session.fin s';
  checks "revived == batch"
    (batch_report Snapshot.Initcheck ~relaxed:false p)
    (Session.report s')

let session_snapshot_rejects () =
  with_state_dir @@ fun dir ->
  let p = program ~seed:21 ~threads:3 ~scale:120 in
  let rows = rows_of_program p in
  let h = hello ~tenant:"rej" ~threads:3 () in
  let s = Result.get_ok (Session.create ~state_dir:dir h) in
  ignore (Session.enqueue s (Client.chunk_of_row rows.(0)));
  ignore (Session.step s);
  (match Session.evict s ~dir with Ok _ -> () | Error m -> Alcotest.fail m);
  (* Wrong lifeguard: the on-disk session is addrcheck. *)
  (match
     Session.create ~state_dir:dir
       (hello ~tenant:"rej" ~lifeguard:Snapshot.Racecheck ~threads:3 ())
   with
  | Error m ->
    checks "wrong lifeguard"
      "tenant rej has a addrcheck session on disk, not racecheck" m
  | Ok _ -> Alcotest.fail "wrong-lifeguard hello accepted");
  (* Wrong thread count against the snapshot. *)
  (match Session.create ~state_dir:dir (hello ~tenant:"rej" ~threads:5 ()) with
  | Error m -> checks "threads" "checkpoint has 3 threads, trace has 5" m
  | Ok _ -> Alcotest.fail "thread mismatch accepted");
  (* A different tenant is unaffected by rej's snapshot. *)
  (match Session.create ~state_dir:dir (hello ~tenant:"other" ~threads:2 ()) with
  | Ok s' -> checki "fresh" 0 (Session.frontier s')
  | Error m -> Alcotest.fail m);
  (* Corrupt snapshot: flip one payload byte. *)
  let path = Snapshot.session_path ~dir ~tenant:"rej" Snapshot.Addrcheck in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string raw in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  match Session.create ~state_dir:dir h with
  | Error m ->
    checkb "corrupt rejected with a stable prefix" true
      (Astring.String.is_prefix ~affix:"CRC mismatch" m
      || Astring.String.is_prefix ~affix:"corrupt checkpoint" m)
  | Ok _ -> Alcotest.fail "corrupt snapshot accepted"

(* ------------------------------------------------------------------ *)
(* Crash_sim over session-keyed snapshots.                             *)

let crash_sim_session () =
  with_state_dir @@ fun dir ->
  let p = program ~seed:5 ~threads:3 ~scale:120 in
  let epochs = Epochs.of_program p in
  let recovers ops =
    match
      Recovery.Crash_sim.run_session ~every:2 ~seed:9 ~dir ~tenant:"cs" ops
        epochs
    with
    | Error m -> Alcotest.fail m
    | Ok o ->
      checkb
        (Snapshot.lifeguard_to_string ops.Runner.tag ^ " recovers identically")
        true o.Recovery.Crash_sim.equal
  in
  recovers (Runner.addr_ops ());
  recovers (Runner.taint_ops ());
  checkb "snapshot under session path" true
    (Sys.file_exists (Snapshot.session_path ~dir ~tenant:"cs" Snapshot.Addrcheck));
  match
    Recovery.Crash_sim.run_session ~every:1 ~dir ~tenant:"no good"
      (Runner.addr_ops ()) epochs
  with
  | _ -> Alcotest.fail "invalid tenant accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The daemon, hosted in a domain.                                     *)

let temp_socket () =
  let path = Filename.temp_file "serve" ".sock" in
  Sys.remove path;
  path

let with_daemon ?domains ?state_dir ?checkpoint_every ?evict_idle_after ?policy
    f =
  let socket = temp_socket () in
  let stop = Atomic.make `Run in
  let cfg =
    Daemon.config ~socket ?domains ?state_dir ?checkpoint_every
      ?evict_idle_after ?policy ()
  in
  let d = Domain.spawn (fun () -> Daemon.run ~stop:(fun () -> Atomic.get stop) cfg) in
  Fun.protect
    ~finally:(fun () ->
      if Atomic.get stop = `Run then Atomic.set stop `Quit;
      Domain.join d;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f socket stop)

(* Eight tenants, mixed lifeguards × drivers, streaming concurrently
   (some with writes shredded to 3 bytes); every report must equal the
   tenant's solo sequential batch run. *)
let eight_tenant_battery () =
  let configs =
    [
      ("t0", Snapshot.Addrcheck, `Sequential, false, None);
      ("t1", Snapshot.Addrcheck, `Pooled, false, Some 3);
      ("t2", Snapshot.Initcheck, `Pooled, false, None);
      ("t3", Snapshot.Initcheck, `Sequential, false, Some 2);
      ("t4", Snapshot.Taintcheck, `Pooled, false, None);
      ("t5", Snapshot.Taintcheck, `Pooled, true, Some 3);
      ("t6", Snapshot.Racecheck, `Sequential, false, None);
      ("t7", Snapshot.Racecheck, `Pooled, false, Some 5);
    ]
  in
  with_daemon ~domains:2 @@ fun socket _stop ->
  let jobs =
    List.mapi
      (fun i (tenant, lifeguard, driver, relaxed, write_chunk) ->
        let p = program ~seed:(100 + i) ~threads:(2 + (i mod 3)) ~scale:80 in
        let expected = batch_report lifeguard ~relaxed p in
        let rows = rows_of_program p in
        let h =
          hello ~tenant ~lifeguard ~driver ~relaxed
            ~threads:(Tracing.Program.threads p) ()
        in
        ( tenant,
          expected,
          Domain.spawn (fun () ->
              Client.run_tenant ~socket ?write_chunk ~hello:h rows) ))
      configs
  in
  List.iter
    (fun (tenant, expected, d) ->
      match Domain.join d with
      | Ok (resumed_from, report) ->
        checki (tenant ^ " started fresh") 0 resumed_from;
        checks (tenant ^ " == solo batch") expected report
      | Error m -> Alcotest.fail (tenant ^ ": " ^ m))
    jobs

(* Minimal raw-protocol client pieces for the crash and containment
   tests, where [Client.run_tenant]'s full conversation is too much. *)
let raw_connect socket =
  match Client.status ~socket () with
  | _ ->
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX socket);
    fd

let raw_send fd frame =
  let s = Wire.encode frame in
  ignore (Unix.write fd (Bytes.unsafe_of_string s) 0 (String.length s))

let raw_read_frame fd =
  let reader = Wire.Reader.create () in
  let buf = Bytes.create 4096 in
  let rec go () =
    match Wire.Reader.next reader with
    | Ok (Some f) -> Ok f
    | Error m -> Error m
    | Ok None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Error "eof"
      | n ->
        Wire.Reader.feed reader (Bytes.unsafe_to_string buf) ~pos:0 ~len:n;
        go ())
  in
  go ()

let fed_of_status socket tenant =
  match Client.status ~socket () with
  | Error _ -> None
  | Ok s -> (
    match Obs.Json.of_string s with
    | Error _ -> None
    | Ok (Obs.Json.Obj fields) -> (
      match List.assoc_opt "sessions" fields with
      | Some (Obs.Json.List cards) ->
        List.find_map
          (function
            | Obs.Json.Obj card
              when List.assoc_opt "tenant" card
                   = Some (Obs.Json.String tenant) -> (
              match List.assoc_opt "fed" card with
              | Some (Obs.Json.Int n) -> Some n
              | _ -> None)
            | _ -> None)
          cards
      | _ -> None)
    | Ok _ -> None)

let rec wait_for ?(tries = 500) pred =
  if tries = 0 then Alcotest.fail "timeout waiting for daemon state"
  else if not (pred ()) then begin
    Unix.sleepf 0.01;
    wait_for ~tries:(tries - 1) pred
  end

(* Kill the daemon mid-stream at a sealed-epoch frontier; the tenant
   reconnects to a restarted daemon over the same state dir and resumes
   from the periodic checkpoint, with a byte-identical final report. *)
let crash_and_reconnect () =
  with_state_dir @@ fun dir ->
  let p = program ~seed:31 ~threads:3 ~scale:150 in
  let rows = rows_of_program p in
  let expected = batch_report Snapshot.Addrcheck ~relaxed:false p in
  let h = hello ~tenant:"phoenix" ~threads:3 () in
  let cut = Array.length rows / 2 in
  checkb "fixture has enough epochs" true (cut >= 2);
  let socket = temp_socket () in
  let crashed_at =
    let stop = Atomic.make `Run in
    let cfg =
      Daemon.config ~socket ~state_dir:dir ~checkpoint_every:1 ()
    in
    let d =
      Domain.spawn (fun () -> Daemon.run ~stop:(fun () -> Atomic.get stop) cfg)
    in
    (* Stream the first half, wait until the daemon has provably fed
       (and therefore checkpointed) those epochs, then pull the plug
       without FIN, eviction or any goodbye. *)
    let fd = raw_connect socket in
    raw_send fd (Wire.Hello h);
    (match raw_read_frame fd with
    | Ok (Wire.Hello_ok { resumed_from }) -> checki "fresh" 0 resumed_from
    | other ->
      Alcotest.fail
        (match other with Error m -> m | Ok f -> Format.asprintf "%a" Wire.pp f));
    for l = 0 to cut - 1 do
      raw_send fd (Wire.Data (Client.chunk_of_row rows.(l)))
    done;
    wait_for (fun () ->
        match fed_of_status socket "phoenix" with
        | Some fed -> fed >= cut
        | None -> false);
    let fed = Option.get (fed_of_status socket "phoenix") in
    Atomic.set stop `Abort;
    Domain.join d;
    Unix.close fd;
    fed
  in
  (* The daemon is gone; its snapshot is the only survivor. *)
  checkb "snapshot survived the crash" true
    (Sys.file_exists
       (Snapshot.session_path ~dir ~tenant:"phoenix" Snapshot.Addrcheck));
  let stop = Atomic.make `Run in
  let cfg = Daemon.config ~socket ~state_dir:dir ~checkpoint_every:1 () in
  let d =
    Domain.spawn (fun () -> Daemon.run ~stop:(fun () -> Atomic.get stop) cfg)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop `Quit;
      Domain.join d;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      match Client.run_tenant ~socket ~hello:h rows with
      | Error m -> Alcotest.fail m
      | Ok (resumed_from, report) ->
        checki "resumed at the crash frontier" crashed_at resumed_from;
        checkb "resumed past the start" true (resumed_from > 0);
        checks "resumed == solo batch" expected report)

(* A tenant id reused after REPORT starts a fresh session: the finished
   stream's periodic snapshot is retired with its report, so the second
   trace is neither resumed at the first one's frontier nor mixed with
   its state. *)
let tenant_reuse_after_report () =
  with_state_dir @@ fun dir ->
  with_daemon ~state_dir:dir ~checkpoint_every:1 @@ fun socket _stop ->
  let snap = Snapshot.session_path ~dir ~tenant:"reuse" Snapshot.Addrcheck in
  let h = hello ~tenant:"reuse" ~threads:3 () in
  List.iteri
    (fun i seed ->
      let p = program ~seed ~threads:3 ~scale:150 in
      match Client.run_tenant ~socket ~hello:h (rows_of_program p) with
      | Error m -> Alcotest.fail m
      | Ok (resumed_from, report) ->
        checki (Printf.sprintf "session %d starts fresh" i) 0 resumed_from;
        checks
          (Printf.sprintf "session %d == solo batch" i)
          (batch_report Snapshot.Addrcheck ~relaxed:false p)
          report)
    [ 51; 52 ];
  (* The daemon unlinks right after sending REPORT, before it reads any
     later frame; only this final look can race it. *)
  wait_for (fun () -> not (Sys.file_exists snap))

(* A state dir removed under a running daemon: the next periodic
   checkpoint cannot be written, so that tenant's session fails with one
   stable ERROR frame — and only that session.  STATUS keeps answering,
   and once the dir is back a later tenant's REPORT equals batch. *)
let state_dir_removed () =
  with_state_dir @@ fun dir ->
  with_daemon ~state_dir:dir ~checkpoint_every:1 @@ fun socket _stop ->
  let p = program ~seed:45 ~threads:2 ~scale:100 in
  let rows = rows_of_program p in
  Unix.rmdir dir;
  let snap = Snapshot.session_path ~dir ~tenant:"lost" Snapshot.Racecheck in
  (match
     Client.run_tenant ~socket
       ~hello:(hello ~tenant:"lost" ~lifeguard:Snapshot.Racecheck ~threads:2 ())
       rows
   with
  | Ok _ -> Alcotest.fail "checkpoint into a removed state dir succeeded"
  | Error m ->
    checks "stable error"
      (Printf.sprintf
         "cannot write checkpoint %s: %s.tmp: No such file or directory" snap
         snap)
      m);
  (match Client.status ~socket () with
  | Ok s ->
    checkb "failed session dropped" false
      (Astring.String.is_infix ~affix:"\"lost\"" s)
  | Error m -> Alcotest.fail ("status after the failure: " ^ m));
  Unix.mkdir dir 0o700;
  match
    Client.run_tenant ~socket
      ~hello:(hello ~tenant:"later" ~lifeguard:Snapshot.Racecheck ~threads:2 ())
      rows
  with
  | Ok (_, report) ->
    checks "later tenant == solo batch"
      (batch_report Snapshot.Racecheck ~relaxed:false p)
      report
  | Error m -> Alcotest.fail ("later tenant: " ^ m)

(* One tenant's corrupt stream must not perturb another tenant streaming
   concurrently — and must end with one stable ERROR frame. *)
let fault_containment () =
  with_daemon @@ fun socket _stop ->
  let p = program ~seed:41 ~threads:2 ~scale:100 in
  let expected = batch_report Snapshot.Initcheck ~relaxed:false p in
  let rows = rows_of_program p in
  let good =
    Domain.spawn (fun () ->
        Client.run_tenant ~socket
          ~hello:
            (hello ~tenant:"good" ~lifeguard:Snapshot.Initcheck ~threads:2 ())
          rows)
  in
  (* Bad tenant 1: valid HELLO, garbage DATA. *)
  let fd = raw_connect socket in
  raw_send fd (Wire.Hello (hello ~tenant:"bad1" ~threads:2 ()));
  (match raw_read_frame fd with
  | Ok (Wire.Hello_ok _) -> ()
  | _ -> Alcotest.fail "bad1 hello refused");
  raw_send fd (Wire.Data "garbage, not a trace");
  (match raw_read_frame fd with
  | Ok (Wire.Error m) -> checks "bad1 error" "bad trace chunk: bad magic" m
  | other ->
    Alcotest.fail
      (match other with Error m -> m | Ok f -> Format.asprintf "%a" Wire.pp f));
  Unix.close fd;
  (* Bad tenant 2: raw garbage where a frame should be. *)
  let fd2 = raw_connect socket in
  ignore
    (Unix.write fd2 (Bytes.of_string "\x00\x00\x00\x03xyz") 0 7);
  (match raw_read_frame fd2 with
  | Ok (Wire.Error m) ->
    checkb "bad2 stable error" true
      (Astring.String.is_prefix ~affix:"bad frame: " m)
  | other ->
    Alcotest.fail
      (match other with Error m -> m | Ok f -> Format.asprintf "%a" Wire.pp f));
  Unix.close fd2;
  match Domain.join good with
  | Ok (_, report) -> checks "good tenant unaffected" expected report
  | Error m -> Alcotest.fail ("good tenant: " ^ m)

(* The retired flat backend: a HELLO asking for it gets one stable error
   frame, and a tenant streaming next to it is unaffected. *)
let flat_state_rejected () =
  with_daemon @@ fun socket _stop ->
  let p = program ~seed:43 ~threads:2 ~scale:100 in
  let expected = batch_report Snapshot.Addrcheck ~relaxed:false p in
  let rows = rows_of_program p in
  let good =
    Domain.spawn (fun () ->
        Client.run_tenant ~socket
          ~hello:(hello ~tenant:"good" ~threads:2 ())
          rows)
  in
  let fd = raw_connect socket in
  raw_send fd
    (Wire.Hello { (hello ~tenant:"old" ~threads:2 ()) with state = `Flat });
  (match raw_read_frame fd with
  | Ok (Wire.Error m) ->
    checks "flat hello" "bad hello: state=flat is no longer supported" m
  | other ->
    Alcotest.fail
      (match other with Error m -> m | Ok f -> Format.asprintf "%a" Wire.pp f));
  Unix.close fd;
  match Domain.join good with
  | Ok (_, report) -> checks "good tenant unaffected" expected report
  | Error m -> Alcotest.fail ("good tenant: " ^ m)

let daemon_hello_rejects () =
  with_daemon @@ fun socket _stop ->
  let fd = raw_connect socket in
  raw_send fd (Wire.Hello (hello ~tenant:"dup" ~threads:2 ()));
  (match raw_read_frame fd with
  | Ok (Wire.Hello_ok _) -> ()
  | _ -> Alcotest.fail "hello refused");
  (* Same tenant, second connection while the first is attached. *)
  let fd2 = raw_connect socket in
  raw_send fd2 (Wire.Hello (hello ~tenant:"dup" ~threads:2 ()));
  (match raw_read_frame fd2 with
  | Ok (Wire.Error m) -> checks "already connected" "tenant dup already connected" m
  | _ -> Alcotest.fail "duplicate attach accepted");
  Unix.close fd2;
  (* Detach, then come back under a different lifeguard: the live
     session's config wins. *)
  Unix.close fd;
  wait_for (fun () ->
      match Client.status ~socket () with
      | Ok s -> (
        match Obs.Json.of_string s with
        | Ok (Obs.Json.Obj fields) -> (
          match List.assoc_opt "sessions" fields with
          | Some (Obs.Json.List [ Obs.Json.Obj card ]) ->
            List.assoc_opt "connected" card = Some (Obs.Json.Bool false)
          | _ -> false)
        | _ -> false)
      | Error _ -> false);
  let fd3 = raw_connect socket in
  raw_send fd3
    (Wire.Hello (hello ~tenant:"dup" ~lifeguard:Snapshot.Taintcheck ~threads:2 ()));
  (match raw_read_frame fd3 with
  | Ok (Wire.Error m) ->
    checks "live lifeguard mismatch"
      "tenant dup has a addrcheck session, not taintcheck" m
  | _ -> Alcotest.fail "lifeguard switch accepted");
  Unix.close fd3;
  (* DATA before HELLO. *)
  let fd4 = raw_connect socket in
  raw_send fd4 (Wire.Data "x");
  (match raw_read_frame fd4 with
  | Ok (Wire.Error m) -> checks "data before hello" "bad stream: DATA before HELLO" m
  | _ -> Alcotest.fail "DATA before HELLO accepted");
  Unix.close fd4

(* Oversubscription: a second tenant's HELLO evicts the detached first
   tenant to disk; the first then reconnects and resumes. *)
let oversubscription_eviction () =
  with_state_dir @@ fun dir ->
  with_daemon ~state_dir:dir
    ~policy:(Policy.v ~max_sessions:1 ~max_queued:64)
  @@ fun socket _stop ->
  let p = program ~seed:51 ~threads:2 ~scale:100 in
  let rows = rows_of_program p in
  let expected = batch_report Snapshot.Addrcheck ~relaxed:false p in
  let h = hello ~tenant:"first" ~threads:2 () in
  (* First tenant streams half and detaches. *)
  let fd = raw_connect socket in
  raw_send fd (Wire.Hello h);
  (match raw_read_frame fd with
  | Ok (Wire.Hello_ok _) -> ()
  | _ -> Alcotest.fail "first hello refused");
  let cut = Array.length rows / 2 in
  for l = 0 to cut - 1 do
    raw_send fd (Wire.Data (Client.chunk_of_row rows.(l)))
  done;
  wait_for (fun () ->
      match fed_of_status socket "first" with
      | Some fed -> fed >= cut
      | None -> false);
  Unix.close fd;
  (* Second tenant displaces it. *)
  let p2 = program ~seed:52 ~threads:2 ~scale:60 in
  (match
     Client.run_tenant ~socket
       ~hello:(hello ~tenant:"second" ~threads:2 ())
       (rows_of_program p2)
   with
  | Ok (_, report) ->
    checks "second tenant served"
      (batch_report Snapshot.Addrcheck ~relaxed:false p2)
      report
  | Error m -> Alcotest.fail ("second tenant: " ^ m));
  checkb "first evicted to disk" true
    (Sys.file_exists
       (Snapshot.session_path ~dir ~tenant:"first" Snapshot.Addrcheck));
  (* First reconnects: revived from the snapshot, resumes, matches. *)
  match Client.run_tenant ~socket ~hello:h rows with
  | Ok (resumed_from, report) ->
    checkb "resumed from the eviction snapshot" true (resumed_from > 0);
    checks "first == solo batch" expected report
  | Error m -> Alcotest.fail ("first reconnect: " ^ m)

(* A slice of the nightly frame-protocol campaign ([fuzz --serve]):
   mutated conversations must end in a report, one stable error frame or
   a clean hang-up, with the daemon standing and a control tenant still
   batch-identical afterwards. *)
let protocol_fuzz () =
  let config =
    { Qa.Serve_fuzz.default_config with iterations = 40; seed = 20260807 }
  in
  let o = Qa.Serve_fuzz.run ~config () in
  (match o.Qa.Serve_fuzz.failure with
  | Some m -> Alcotest.fail m
  | None -> ());
  checki "campaign completed" 40 o.Qa.Serve_fuzz.iterations

(* Old clients may still send the retired [`Wavefront] driver byte: a
   [--domains] daemon serves it on its one pooled engine, the STATUS card
   says so, and the report is the batch report byte for byte. *)
let wavefront_hello_runs_pooled () =
  Butterfly.Domain_pool.with_pool ~name:"serve-test" ~domains:2 (fun pool ->
      match
        Session.create ~pool
          (hello ~tenant:"old" ~driver:`Wavefront ~threads:2 ())
      with
      | Error m -> Alcotest.fail m
      | Ok s -> (
        match Session.stats_json s with
        | Obs.Json.Obj card ->
          checkb "card says pooled" true
            (List.assoc_opt "driver" card = Some (Obs.Json.String "pooled"))
        | _ -> Alcotest.fail "status card is not an object"));
  with_daemon ~domains:2 @@ fun socket _stop ->
  List.iteri
    (fun i (lifeguard, relaxed) ->
      let p = program ~seed:(71 + i) ~threads:3 ~scale:80 in
      let h =
        hello
          ~tenant:(Printf.sprintf "old-%d" i)
          ~lifeguard ~driver:`Wavefront ~relaxed
          ~threads:(Tracing.Program.threads p) ()
      in
      match Client.run_tenant ~socket ~hello:h (rows_of_program p) with
      | Ok (_, report) ->
        checks
          (Snapshot.lifeguard_to_string lifeguard ^ " == batch")
          (batch_report lifeguard ~relaxed p)
          report
      | Error m -> Alcotest.fail m)
    [ (Snapshot.Addrcheck, false); (Snapshot.Initcheck, false);
      (Snapshot.Taintcheck, true); (Snapshot.Racecheck, false) ]

let status_surface () =
  with_daemon @@ fun socket _stop ->
  let p = program ~seed:61 ~threads:2 ~scale:60 in
  (match
     Client.run_tenant ~socket
       ~hello:(hello ~tenant:"st" ~threads:2 ())
       (rows_of_program p)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Client.status ~socket () with
  | Error m -> Alcotest.fail m
  | Ok s -> (
    match Obs.Json.of_string s with
    | Error m -> Alcotest.fail ("status is not JSON: " ^ m)
    | Ok (Obs.Json.Obj fields) ->
      checkb "live" true (List.mem_assoc "live" fields);
      checkb "sessions" true (List.mem_assoc "sessions" fields);
      (match List.assoc_opt "prometheus" fields with
      | Some (Obs.Json.String prom) ->
        checkb "prometheus text" true
          (Astring.String.is_infix ~affix:"# TYPE" prom)
      | _ -> Alcotest.fail "no prometheus field")
    | Ok _ -> Alcotest.fail "status is not an object")

(* ------------------------------------------------------------------ *)
(* Report lines: the direct writers against the JSON tree.             *)

(* The renderers as they were before they wrote into one buffer: an
   [Obs.Json] tree per report, printed by [Obs.Json.to_string].  Kept as
   the reference the lines must equal byte for byte. *)
module Tree_render = struct
  module J = Obs.Json

  let instr_id (id : Butterfly.Instr_id.t) =
    J.Obj
      [ ("epoch", J.Int id.epoch); ("tid", J.Int id.tid);
        ("index", J.Int id.index) ]

  let intervals is =
    J.List
      (List.map
         (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ])
         (Butterfly.Interval_set.intervals is))

  let lifeguard ~name ~checked ~flagged ~errors =
    J.Obj
      [
        ("lifeguard", J.String name);
        ("checked", J.Int checked);
        ("flagged", J.Int flagged);
        ("errors", J.List errors);
      ]

  let addrcheck_error (e : Lifeguards.Addrcheck.error) =
    let kind =
      match e.kind with
      | Lifeguards.Addrcheck.Unallocated_access -> "unallocated_access"
      | Unallocated_free -> "unallocated_free"
      | Double_alloc -> "double_alloc"
      | Metadata_race -> "metadata_race"
    in
    let where =
      match e.where with
      | `Instr id -> [ ("at", instr_id id) ]
      | `Block (l, t) ->
        [ ("block", J.Obj [ ("epoch", J.Int l); ("tid", J.Int t) ]) ]
    in
    J.Obj ([ ("kind", J.String kind); ("addrs", intervals e.addrs) ] @ where)

  let initcheck_error (e : Lifeguards.Initcheck.error) =
    J.Obj
      [ ("kind", J.String "uninitialized_read");
        ("addrs", intervals e.addrs); ("at", instr_id e.id) ]

  let taintcheck_error (e : Lifeguards.Taintcheck.error) =
    J.Obj
      [ ("kind", J.String "tainted_sink"); ("sink", J.Int e.sink);
        ("at", instr_id e.id) ]

  let race (r : Lifeguards.Racecheck.race) =
    let kind = function Lifeguards.Racecheck.R -> "read" | W -> "write" in
    J.Obj
      [ ("kind", J.String "may_race"); ("addr", J.Int r.addr);
        ("a", instr_id r.a); ("a_kind", J.String (kind r.a_kind));
        ("b", instr_id r.b); ("b_kind", J.String (kind r.b_kind)) ]

  let sum stats f =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc s -> acc + f s) acc row)
      0 stats

  let addrcheck (r : Lifeguards.Addrcheck.report) =
    lifeguard ~name:"addrcheck" ~checked:r.total_accesses
      ~flagged:r.flagged_accesses
      ~errors:(List.map addrcheck_error r.errors)

  let initcheck (r : Lifeguards.Initcheck.report) =
    lifeguard ~name:"initcheck" ~checked:r.total_reads ~flagged:r.flagged_reads
      ~errors:(List.map initcheck_error r.errors)

  let taintcheck (r : Lifeguards.Taintcheck.report) =
    lifeguard ~name:"taintcheck"
      ~checked:
        (sum r.block_stats (fun (s : Lifeguards.Taintcheck.block_stats) ->
             s.checks_resolved))
      ~flagged:(List.length r.errors)
      ~errors:(List.map taintcheck_error r.errors)

  let racecheck (r : Lifeguards.Racecheck.report) =
    lifeguard ~name:"racecheck"
      ~checked:
        (sum r.block_stats (fun (s : Lifeguards.Racecheck.block_stats) ->
             s.pairs_checked))
      ~flagged:(List.length r.races)
      ~errors:(List.map race r.races)
end

(* Integers of every sign and size: small, negative, near [max_int] and
   [min_int]. *)
let gen_any_int =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-100) 100);
        (2, int_range 0 (1 lsl 40));
        (1, int_range (max_int - 100) max_int);
        (1, int_range min_int (min_int + 100));
      ])

let gen_id =
  QCheck.Gen.(
    map3
      (fun epoch tid index -> Butterfly.Instr_id.make ~epoch ~tid ~index)
      gen_any_int (int_bound 16) gen_any_int)

(* Up to four byte ranges, negative and near [max_int] ones included, so
   that the set often holds several intervals. *)
let gen_addrs =
  QCheck.Gen.(
    map Butterfly.Interval_set.of_intervals
      (list_size (int_bound 4)
         (map2
            (fun lo len -> (lo, lo + len))
            (oneof
               [ int_range (-4096) 4096;
                 int_range (max_int - 4096) (max_int - 64) ])
            (int_range 1 48))))

let gen_errors gen =
  QCheck.Gen.(frequency [ (1, return []); (4, list_size (int_bound 12) gen) ])

let gen_counts = QCheck.Gen.(pair gen_any_int gen_any_int)

let gen_addrcheck_report =
  let open QCheck.Gen in
  let error =
    let* kind =
      oneofl
        Lifeguards.Addrcheck.
          [ Unallocated_access; Unallocated_free; Double_alloc; Metadata_race ]
    in
    let* addrs = gen_addrs in
    let+ where =
      oneof
        [ map (fun id -> `Instr id) gen_id;
          map2 (fun l t -> `Block (l, t)) gen_any_int (int_bound 16) ]
    in
    { Lifeguards.Addrcheck.kind; addrs; where }
  in
  let* errors = gen_errors error in
  let+ checked, flagged = gen_counts in
  {
    Lifeguards.Addrcheck.errors;
    flagged_accesses = flagged;
    total_accesses = checked;
    block_stats = [||];
    sos = [||];
  }

let gen_initcheck_report =
  let open QCheck.Gen in
  let error =
    map2 (fun id addrs -> { Lifeguards.Initcheck.id; addrs }) gen_id gen_addrs
  in
  let* errors = gen_errors error in
  let+ checked, flagged = gen_counts in
  { Lifeguards.Initcheck.errors; flagged_reads = flagged; total_reads = checked;
    sos = [||] }

(* A small per-block grid of one counter. *)
let gen_stats_grid mk =
  QCheck.Gen.(
    array_size (int_bound 3) (array_size (int_bound 3) (map mk (int_bound 1000))))

let gen_taintcheck_report =
  let open QCheck.Gen in
  let error =
    map2 (fun id sink -> { Lifeguards.Taintcheck.id; sink }) gen_id gen_any_int
  in
  let* errors = gen_errors error in
  let+ block_stats =
    gen_stats_grid (fun n ->
        { Lifeguards.Taintcheck.instrs = n; mem_events = n; checks_resolved = n })
  in
  { Lifeguards.Taintcheck.errors; sos_tainted = [||]; block_stats }

let gen_racecheck_report =
  let open QCheck.Gen in
  let kind = oneofl Lifeguards.Racecheck.[ R; W ] in
  let race =
    let* a = gen_id and* a_kind = kind and* b = gen_id and* b_kind = kind in
    let+ addr = gen_any_int in
    { Lifeguards.Racecheck.a; a_kind; b; b_kind; addr }
  in
  let* races = gen_errors race in
  let+ block_stats =
    gen_stats_grid (fun n ->
        {
          Lifeguards.Racecheck.instrs = n;
          accesses = n;
          pairs_checked = n;
          races = 0;
        })
  in
  { Lifeguards.Racecheck.races; entry_locks = [||]; block_stats }

(* The line equals the tree's rendering and parses back to the tree. *)
let line_matches_tree tree line =
  String.equal line (Obs.Json.to_string tree)
  && Obs.Json.of_string line = Ok tree

let report_line_tests =
  let case name gen write tree =
    Testutil.qtest ~count:300
      (name ^ ": line == Obs.Json tree rendering, and parses back")
      (QCheck.make ~print:(fun r -> Obs.Json.to_string (tree r)) gen)
      (fun r -> line_matches_tree (tree r) (write r))
  in
  [
    case "addrcheck" gen_addrcheck_report Report.addrcheck Tree_render.addrcheck;
    case "initcheck" gen_initcheck_report Report.initcheck Tree_render.initcheck;
    case "taintcheck" gen_taintcheck_report Report.taintcheck
      Tree_render.taintcheck;
    case "racecheck" gen_racecheck_report Report.racecheck Tree_render.racecheck;
  ]

let () =
  Alcotest.run "serve"
    [
      ("report", report_line_tests);
      ( "wire",
        [
          Alcotest.test_case "frames round-trip" `Quick wire_roundtrip;
          Alcotest.test_case "one-byte-at-a-time reassembly" `Quick
            wire_torn_delivery;
          Alcotest.test_case "malformed bodies rejected stably" `Quick
            wire_rejects;
          Alcotest.test_case "oversized frames rejected and sticky" `Quick
            wire_oversized_sticky;
          Testutil.qtest ~count:300 "round-trip under arbitrary chunking"
            arb_frames_and_cuts prop_chunked_roundtrip;
        ] );
      ( "policy",
        [
          Alcotest.test_case "backpressure threshold" `Quick policy_throttle;
          Alcotest.test_case "eviction choice" `Quick policy_eviction;
        ] );
      ( "table",
        [ Alcotest.test_case "round-robin rotation" `Quick table_rotation ] );
      ( "session",
        [
          Alcotest.test_case "hello rejections" `Quick session_create_rejects;
          Alcotest.test_case "streamed == batch for every lifeguard" `Slow
            session_matches_batch;
          Alcotest.test_case "stream rejections" `Quick session_stream_rejects;
          Alcotest.test_case "evict + revive == uninterrupted" `Slow
            session_evict_revive;
          Alcotest.test_case "snapshot rejection catalogue" `Quick
            session_snapshot_rejects;
        ] );
      ( "crash-sim",
        [
          Alcotest.test_case "session-keyed crash recovery" `Slow
            crash_sim_session;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "8 concurrent tenants == solo batch" `Slow
            eight_tenant_battery;
          Alcotest.test_case "crash at a sealed frontier + reconnect" `Slow
            crash_and_reconnect;
          Alcotest.test_case "state dir removed: one ERROR, daemon lives"
            `Quick state_dir_removed;
          Alcotest.test_case "per-session fault containment" `Quick
            fault_containment;
          Alcotest.test_case "hello rejections over the wire" `Quick
            daemon_hello_rejects;
          Alcotest.test_case "state=flat hello rejected, neighbour unaffected"
            `Quick flat_state_rejected;
          Alcotest.test_case "oversubscription eviction + revival" `Slow
            oversubscription_eviction;
          Alcotest.test_case "old-client wavefront hello runs pooled" `Slow
            wavefront_hello_runs_pooled;
          Alcotest.test_case "status endpoint" `Quick status_surface;
          Alcotest.test_case "frame-protocol fuzz slice" `Slow protocol_fuzz;
          Alcotest.test_case "tenant id reused after REPORT starts fresh"
            `Slow tenant_reuse_after_report;
        ] );
    ]
