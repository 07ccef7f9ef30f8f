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
  let threads = Epochs.threads epochs in
  Array.init (Epochs.num_epochs epochs) (fun l ->
      Array.init threads (fun tid ->
          (Epochs.block epochs ~epoch:l ~tid).Butterfly.Block.instrs))

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

let drive ops ?checkpoint ~threads rows ~from st =
  (match checkpoint with
  | Some { every; _ } when every <= 0 ->
    invalid_arg "Recovery.Runner: checkpoint interval must be > 0"
  | _ -> ());
  for l = from to Array.length rows - 1 do
    ops.feed st rows.(l);
    match checkpoint with
    | Some { every; path } when ops.fed st mod every = 0 ->
      ignore (write_checkpoint ops ~path ~threads st)
    | _ -> ()
  done;
  ops.finish st

let run ops ?checkpoint epochs =
  let threads = Epochs.threads epochs in
  drive ops ?checkpoint ~threads (rows_of epochs) ~from:0 (ops.create ~threads)

let resume ops ?checkpoint ~path epochs =
  match Snapshot.read_file ~path with
  | Error m -> Error m
  | Ok (meta, payload) ->
    if meta.Snapshot.lifeguard <> ops.tag then
      Error
        (Printf.sprintf "checkpoint is for %s, not %s"
           (Snapshot.lifeguard_to_string meta.Snapshot.lifeguard)
           (Snapshot.lifeguard_to_string ops.tag))
    else
      let threads = Epochs.threads epochs in
      let num = Epochs.num_epochs epochs in
      if meta.Snapshot.threads <> threads then
        Error
          (Printf.sprintf "checkpoint has %d threads, trace has %d"
             meta.Snapshot.threads threads)
      else if meta.Snapshot.next_epoch > num then
        Error
          (Printf.sprintf
             "checkpoint is ahead of the trace: %d epochs folded, trace has %d"
             meta.Snapshot.next_epoch num)
      else (
        match
          Obs.Scope.with_scope ~phase:"restore" (fun () ->
              Obs.Span.time sp_restore (fun () -> ops.dec payload))
        with
        | Error m -> Error ("corrupt checkpoint payload: " ^ m)
        | Ok st ->
          if ops.fed st <> meta.Snapshot.next_epoch then
            Error "corrupt checkpoint payload: header and payload disagree on epoch"
          else
            Ok
              (drive ops ?checkpoint ~threads (rows_of epochs)
                 ~from:meta.Snapshot.next_epoch st))

let run_addrcheck ?pool ?isolation ?checkpoint epochs =
  run (addr_ops ?pool ?isolation ()) ?checkpoint epochs

let resume_addrcheck ?pool ?checkpoint ~path epochs =
  resume (addr_ops ?pool ()) ?checkpoint ~path epochs

let run_initcheck ?pool ?checkpoint epochs =
  run (init_ops ?pool ()) ?checkpoint epochs

let resume_initcheck ?pool ?checkpoint ~path epochs =
  resume (init_ops ?pool ()) ?checkpoint ~path epochs

let run_taintcheck ?pool ?sequential ?two_phase ?checkpoint epochs =
  run (taint_ops ?pool ?sequential ?two_phase ()) ?checkpoint epochs

let resume_taintcheck ?pool ?checkpoint ~path epochs =
  resume (taint_ops ?pool ()) ?checkpoint ~path epochs

let run_racecheck ?pool ?checkpoint epochs =
  run (race_ops ?pool ()) ?checkpoint epochs

let resume_racecheck ?pool ?checkpoint ~path epochs =
  resume (race_ops ?pool ()) ?checkpoint ~path epochs
