module AC = Lifeguards.Addrcheck
module IC = Lifeguards.Initcheck
module TC = Lifeguards.Taintcheck
module RC = Lifeguards.Racecheck
module Epochs = Butterfly.Epochs

type checkpointing = { every : int; path : string }

type ('s, 'r) ops = {
  tag : Snapshot.lifeguard;
  create : threads:int -> 's;
  feed : 's -> Tracing.Instr.t array array -> unit;
  threads : 's -> int;
  fed : 's -> int;
  finish : 's -> 'r;
  enc : 's -> string;
  dec : string -> ('s, string) result;
  fp : 'r -> string;
}

let of_engine (type s r p)
    (module E : Butterfly.Window.S
      with type env = unit
       and type params = p
       and type t = s
       and type report = r) tag fp ?pool params =
  {
    tag;
    create = (fun ~threads -> E.create ?pool ~threads () params);
    feed = E.feed_row;
    threads = E.threads;
    fed = E.fed;
    finish = E.finish;
    enc = E.encode;
    dec = E.decode ?pool ();
    fp;
  }

let addr_ops ?pool () =
  of_engine (module AC.Engine) Snapshot.Addrcheck AC.fingerprint ?pool true

let init_ops ?pool () =
  of_engine (module IC.Engine) Snapshot.Initcheck IC.fingerprint ?pool ()

let taint_ops ?pool () =
  of_engine (module TC.Engine) Snapshot.Taintcheck TC.fingerprint ?pool
    TC.{ sequential = true; two_phase = true }

let race_ops ?pool () =
  of_engine (module RC.Engine) Snapshot.Racecheck RC.fingerprint ?pool ()

let rows_of epochs =
  let rows = ref [] in
  Epochs.iter_rows epochs (fun row -> rows := row :: !rows);
  Array.of_list (List.rev !rows)

type rows = (Tracing.Instr.t array array -> unit) -> unit

let m_checkpoints = Obs.Counter.make "recovery.checkpoints"
let m_bytes = Obs.Counter.make "recovery.bytes"
let sp_restore = Obs.Span.make "recovery.restore.ns"

let write_checkpoint ops ~path ~threads st =
  Obs.Scope.with_scope ~epoch:(ops.fed st) ~phase:"checkpoint" @@ fun () ->
  let meta =
    { Snapshot.lifeguard = ops.tag; next_epoch = ops.fed st; threads }
  in
  let bytes = Snapshot.write_file ~path meta (ops.enc st) in
  Obs.Counter.incr m_checkpoints;
  Obs.Counter.add m_bytes bytes;
  bytes

(* Feed the rows past the first [from], snapshotting on the way, and
   finish. *)
let drive ops ?checkpoint ~threads ~from (rows : rows) st =
  (match checkpoint with
  | Some { every; _ } when every <= 0 ->
    invalid_arg "Recovery.Runner: checkpoint interval must be > 0"
  | _ -> ());
  let l = ref 0 in
  rows (fun row ->
      if !l >= from then begin
        ops.feed st row;
        match checkpoint with
        | Some { every; path } when ops.fed st mod every = 0 ->
          ignore (write_checkpoint ops ~path ~threads st)
        | _ -> ()
      end;
      incr l);
  ops.finish st

let run ops ?checkpoint ~threads rows =
  drive ops ?checkpoint ~threads ~from:0 rows (ops.create ~threads)

(* [num_rows], when given, is the length of the trace the revived engine
   will continue over: a snapshot past its end is rejected before its
   payload is decoded. *)
let revive_within ?num_rows ops ~path ~threads =
  match Snapshot.read_file ~path with
  | Error m -> Error m
  | Ok (meta, payload) -> (
    let next = meta.Snapshot.next_epoch in
    if meta.Snapshot.lifeguard <> ops.tag then
      Error
        (Printf.sprintf "checkpoint is for %s, not %s"
           (Snapshot.lifeguard_to_string meta.Snapshot.lifeguard)
           (Snapshot.lifeguard_to_string ops.tag))
    else if meta.Snapshot.threads <> threads then
      Error
        (Printf.sprintf "checkpoint has %d threads, trace has %d"
           meta.Snapshot.threads threads)
    else
      match num_rows with
      | Some n when next > n ->
        Error
          (Printf.sprintf
             "checkpoint is ahead of the trace: %d epochs folded, trace has %d"
             next n)
      | _ -> (
        match
          Obs.Scope.with_scope ~phase:"restore" (fun () ->
              Obs.Span.time sp_restore (fun () -> ops.dec payload))
        with
        | Error m -> Error ("corrupt checkpoint payload: " ^ m)
        | Ok st ->
          if ops.fed st <> next then
            Error
              "corrupt checkpoint payload: header and payload disagree on \
               epoch"
          else if ops.threads st <> threads then
            Error
              "corrupt checkpoint payload: header and payload disagree on \
               threads"
          else Ok (st, next)))

let revive ops ~path ~threads = revive_within ops ~path ~threads

let resume ops ?checkpoint ~path ~threads ~num_rows rows =
  Result.map
    (fun (st, from) -> drive ops ?checkpoint ~threads ~from rows st)
    (revive_within ~num_rows ops ~path ~threads)
