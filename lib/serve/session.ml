module Runner = Recovery.Runner
module Snapshot = Recovery.Snapshot
module Cursor = Tracing.Trace_codec.Cursor

(* The engine state and its typed report renderer, packed together so
   the report type never escapes. *)
type packed =
  | E : ('s, 'r) Runner.ops * 's * ('r -> string) -> packed

type t = {
  tenant : string;
  lifeguard : Snapshot.lifeguard;
  driver : [ `Sequential | `Pooled ];
  threads : int;
  engine : packed;
  rows : Tracing.Instr.t array array Queue.t;
  mutable fin : bool;
  mutable report : string option;
}

let all_lifeguards =
  [ Snapshot.Addrcheck; Snapshot.Initcheck; Snapshot.Taintcheck;
    Snapshot.Racecheck ]

let fresh (h : Wire.hello) pool =
  let (Report.Engine { ops; json; _ }) =
    Report.engine ?pool ~relaxed:h.relaxed h.lifeguard
  in
  E (ops, ops.Runner.create ~threads:h.threads, json)

let revive (h : Wire.hello) pool ~path =
  let (Report.Engine { ops; json; _ }) =
    Report.engine ?pool ~relaxed:h.relaxed h.lifeguard
  in
  Result.map
    (fun (st, _) -> E (ops, st, json))
    (Runner.revive ops ~path ~threads:h.threads)

let create ?pool ?state_dir (h : Wire.hello) =
  if not (Snapshot.valid_tenant h.tenant) then
    Error (Printf.sprintf "bad hello: invalid tenant id %S" h.tenant)
  else if h.threads < 1 then Error "bad hello: threads must be >= 1"
  else if h.state = `Flat then
    Error "bad hello: state=flat is no longer supported"
  else if h.driver <> `Sequential && pool = None then
    Error "bad hello: driver needs a daemon started with --domains"
  else
    (* Old clients may still ask for [`Wavefront]: the daemon has one
       pooled engine, so it serves them as [`Pooled]. *)
    let driver = if h.driver = `Sequential then `Sequential else `Pooled in
    let pool = if driver = `Sequential then None else pool in
    let wrap engine =
      {
        tenant = h.tenant;
        lifeguard = h.lifeguard;
        driver;
        threads = h.threads;
        engine;
        rows = Queue.create ();
        fin = false;
        report = None;
      }
    in
    match state_dir with
    | None -> Ok (wrap (fresh h pool))
    | Some dir ->
      let snap = Snapshot.session_path ~dir ~tenant:h.tenant h.lifeguard in
      if Sys.file_exists snap then (
        match revive h pool ~path:snap with
        | Error m -> Error m
        | Ok engine -> Ok (wrap engine))
      else (
        (* No snapshot under this lifeguard — but a snapshot under
           another one means this tenant's stream is mid-flight with a
           different analysis, and silently starting fresh would split
           the session.  Reject; the stale file must be removed (or the
           right lifeguard requested) first. *)
        match
          List.find_opt
            (fun lg ->
              lg <> h.lifeguard
              && Sys.file_exists (Snapshot.session_path ~dir ~tenant:h.tenant lg))
            all_lifeguards
        with
        | Some other ->
          Error
            (Printf.sprintf "tenant %s has a %s session on disk, not %s"
               h.tenant
               (Snapshot.lifeguard_to_string other)
               (Snapshot.lifeguard_to_string h.lifeguard))
        | None -> Ok (wrap (fresh h pool)))

let tenant t = t.tenant
let lifeguard t = t.lifeguard
let threads t = t.threads
let fed t = match t.engine with E (ops, st, _) -> ops.Runner.fed st
let queued t = Queue.length t.rows
let frontier t = fed t + queued t
let fin t = t.fin <- true
let fin_received t = t.fin
let finished t = t.fin && Queue.is_empty t.rows

let enqueue t chunk =
  if t.fin then Error "bad stream: DATA after FIN"
  else
    match Cursor.of_string chunk with
    | Error m -> Error ("bad trace chunk: " ^ m)
    | Ok c ->
      if Cursor.threads c <> t.threads then
        Error
          (Printf.sprintf "bad trace chunk: %d threads, session has %d"
             (Cursor.threads c) t.threads)
      else begin
        let n = ref 0 in
        Cursor.iter_rows c (fun row ->
            incr n;
            Queue.add row t.rows);
        Ok !n
      end

let step t =
  match Queue.take_opt t.rows with
  | None -> false
  | Some row ->
    (match t.engine with
    | E (ops, st, _) ->
      Obs.Scope.with_scope ~tenant:t.tenant ~epoch:(ops.Runner.fed st)
        ~phase:"serve" (fun () -> ops.Runner.feed st row));
    true

let drain t = while step t do () done

let report t =
  match t.report with
  | Some r -> r
  | None ->
    drain t;
    let r =
      match t.engine with
      | E (ops, st, render) ->
        Obs.Scope.with_scope ~tenant:t.tenant ~phase:"serve" (fun () ->
            render (ops.Runner.finish st))
    in
    t.report <- Some r;
    r

let checkpoint t ~dir =
  if t.report <> None then Error "cannot checkpoint: session already reported"
  else
    match t.engine with
    | E (ops, st, _) ->
      Obs.Scope.with_scope ~tenant:t.tenant (fun () ->
          match
            Runner.write_checkpoint ops
              ~path:(Snapshot.session_path ~dir ~tenant:t.tenant t.lifeguard)
              ~threads:t.threads st
          with
          | bytes -> Ok bytes
          | exception Snapshot.Write_error m -> Error m)

let evict t ~dir =
  if t.report <> None then Error "cannot evict: session already reported"
  else begin
    drain t;
    checkpoint t ~dir
  end

let driver_string = function
  | `Sequential -> "sequential"
  | `Pooled -> "pooled"

let stats_json t =
  Obs.Json.Obj
    [
      ("tenant", Obs.Json.String t.tenant);
      ("lifeguard",
       Obs.Json.String (Snapshot.lifeguard_to_string t.lifeguard));
      ("driver", Obs.Json.String (driver_string t.driver));
      ("threads", Obs.Json.Int t.threads);
      ("fed", Obs.Json.Int (fed t));
      ("queued", Obs.Json.Int (queued t));
      ("fin", Obs.Json.Bool t.fin);
      ("reported", Obs.Json.Bool (t.report <> None));
    ]
