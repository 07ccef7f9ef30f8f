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
  fed : 's -> int;
  finish : 's -> 'r;
  enc : 's -> string;
  dec : string -> ('s, string) result;
  fp : 'r -> string;
}

type packed = Packed : ('s, 'r) ops -> packed

let addr_ops ?pool ?isolation () =
  {
    tag = Snapshot.Addrcheck;
    create = (fun ~threads -> AC.Resumable.create ?pool ?isolation ~threads ());
    feed = AC.Resumable.feed_epoch;
    fed = AC.Resumable.epochs_fed;
    finish = AC.Resumable.finish;
    enc = AC.Resumable.encode;
    dec = AC.Resumable.decode ?pool;
    fp = AC.fingerprint;
  }

let init_ops ?pool () =
  {
    tag = Snapshot.Initcheck;
    create = (fun ~threads -> IC.Resumable.create ?pool ~threads ());
    feed = IC.Resumable.feed_epoch;
    fed = IC.Resumable.epochs_fed;
    finish = IC.Resumable.finish;
    enc = IC.Resumable.encode;
    dec = IC.Resumable.decode ?pool;
    fp = IC.fingerprint;
  }

let taint_ops ?pool ?sequential ?two_phase () =
  {
    tag = Snapshot.Taintcheck;
    create =
      (fun ~threads ->
        TC.Resumable.create ?pool ?sequential ?two_phase ~threads ());
    feed = TC.Resumable.feed_epoch;
    fed = TC.Resumable.epochs_fed;
    finish = TC.Resumable.finish;
    enc = TC.Resumable.encode;
    dec = TC.Resumable.decode ?pool;
    fp = TC.fingerprint;
  }

let race_ops ?pool () =
  {
    tag = Snapshot.Racecheck;
    create = (fun ~threads -> RC.Resumable.create ?pool ~threads ());
    feed = RC.Resumable.feed_epoch;
    fed = RC.Resumable.epochs_fed;
    finish = RC.Resumable.finish;
    enc = RC.Resumable.encode;
    dec = RC.Resumable.decode ?pool;
    fp = RC.fingerprint;
  }

let ops_of ?pool ?isolation ?sequential ?two_phase = function
  | Snapshot.Addrcheck -> Packed (addr_ops ?pool ?isolation ())
  | Snapshot.Initcheck -> Packed (init_ops ?pool ())
  | Snapshot.Taintcheck ->
    Packed (taint_ops ?pool ?sequential ?two_phase ())
  | Snapshot.Racecheck -> Packed (race_ops ?pool ())

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
          else Ok (st, next)))

let revive ops ~path ~threads = revive_within ops ~path ~threads

let resume ops ?checkpoint ~path ~threads ~num_rows rows =
  Result.map
    (fun (st, from) -> drive ops ?checkpoint ~threads ~from rows st)
    (revive_within ~num_rows ops ~path ~threads)
