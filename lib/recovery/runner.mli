(** Checkpointed lifeguard runs.

    Drives a lifeguard's engine (a {!Butterfly.Window.S}) over a stream
    of epoch rows, persisting a {!Snapshot} every [every] epochs, and
    revives a run from such a snapshot.  The resumed run is
    byte-identical to an uninterrupted one — that is the window's
    checkpoint contract, enforced by the resume-equivalence suite in
    [test_recovery] and fuzzed continuously by [Qa].

    Telemetry (under the installed {!Obs} sink): [recovery.checkpoints]
    and [recovery.bytes] counters, and a [recovery.restore.ns] span around
    payload decoding on resume. *)

type checkpointing = {
  every : int;  (** epochs between snapshots; must be > 0 *)
  path : string;  (** snapshot file, atomically overwritten each time *)
}

(** One lifeguard's engine, as first-class operations.  ['s] is the
    engine state, ['r] its report.  The record is exposed so
    [Crash_sim], the serving layer and the QA battery can drive any
    lifeguard generically; [Serve.Report]'s lifeguard table builds one per
    lifeguard and analysis variant with {!of_engine}.  Checkpoints are cut
    at sealed-epoch frontiers, so a snapshot taken with or without [pool]
    resumes either way.  On resume the analysis settings are restored
    from the snapshot payload, not from the builder's arguments; [pool]
    is transient and re-supplied. *)
type ('s, 'r) ops = {
  tag : Snapshot.lifeguard;
  create : threads:int -> 's;
  feed : 's -> Tracing.Instr.t array array -> unit;
  threads : 's -> int;
  fed : 's -> int;
  finish : 's -> 'r;
  enc : 's -> string;
  dec : string -> ('s, string) result;
  fp : 'r -> string;  (** canonical report fingerprint *)
}

val of_engine :
  (module Butterfly.Window.S
     with type env = unit
      and type params = 'p
      and type t = 's
      and type report = 'r) ->
  Snapshot.lifeguard ->
  ('r -> string) ->
  ?pool:Butterfly.Domain_pool.t ->
  'p ->
  ('s, 'r) ops
(** [of_engine (module E) tag fp ?pool params]: the operations of engine
    [E] (a lifeguard's [Engine]) created with [params], snapshots tagged
    [tag], reports fingerprinted by [fp].  [pool] runs pass 2 on the
    caller's domain pool, in fresh and in decoded engines alike. *)

(** The four lifeguards with their default analysis settings. *)

val addr_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Addrcheck.Engine.t, Lifeguards.Addrcheck.report) ops

val init_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Initcheck.Engine.t, Lifeguards.Initcheck.report) ops

val taint_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Taintcheck.Engine.t, Lifeguards.Taintcheck.report) ops

val race_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Racecheck.Engine.t, Lifeguards.Racecheck.report) ops

val rows_of : Butterfly.Epochs.t -> Tracing.Instr.t array array array
(** The grid as epoch rows, [rows.(epoch).(tid)]
    ({!Butterfly.Epochs.iter_rows}, collected). *)

type rows = (Tracing.Instr.t array array -> unit) -> unit
(** A row iterator: calls its argument once per epoch row, in order —
    {!Butterfly.Epochs.iter_rows} over a grid, or
    {!Tracing.Row_source.iter_rows} over a trace file. *)

val write_checkpoint : ('s, 'r) ops -> path:string -> threads:int -> 's -> int
(** Snapshot the engine state to [path] (atomic), bumping the recovery
    counters; returns the byte size.  Raises
    {!Snapshot.Write_error} when the snapshot cannot be written. *)

val run :
  ('s, 'r) ops -> ?checkpoint:checkpointing -> threads:int -> rows -> 'r
(** Create an engine for [threads] threads, feed it every row, and
    finish it — snapshotting after every [every]-th epoch when
    [checkpoint] is given.  Raises [Invalid_argument] if [every <= 0],
    and {!Snapshot.Write_error} if a snapshot cannot be written. *)

val revive :
  ('s, 'r) ops -> path:string -> threads:int -> ('s * int, string) result
(** Revive an engine from the snapshot at [path]; returns it with the
    number of epochs it has folded.  Stable errors: the
    {!Snapshot.read_file} errors;
    ["checkpoint is for LIFEGUARD, not LIFEGUARD"];
    ["checkpoint has N threads, trace has M"];
    ["corrupt checkpoint payload: _"], including
    ["corrupt checkpoint payload: header and payload disagree on epoch"]
    and ["... on threads"]. *)

val resume :
  ('s, 'r) ops ->
  ?checkpoint:checkpointing ->
  path:string ->
  threads:int ->
  num_rows:int ->
  rows ->
  ('r, string) result
(** {!revive} the engine from [path], feed the rows past its frontier —
    the first [N] rows the iterator yields are skipped — and finish.
    [num_rows] is the trace's row count.  Stable errors: those of
    {!revive}, and
    ["checkpoint is ahead of the trace: N epochs folded, trace has M"],
    checked before the payload is decoded. *)
