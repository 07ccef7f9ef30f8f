(** Checkpointed lifeguard runs.

    Drives a lifeguard's [Resumable] engine over an epoch grid, persisting
    a {!Snapshot} every [every] epochs, and revives a run from such a
    snapshot.  The resumed run is byte-identical to an uninterrupted one —
    that is the [Resumable] contract, enforced by the resume-equivalence
    suite in [test_recovery] and fuzzed continuously by [Qa].

    Telemetry (under the installed {!Obs} sink): [recovery.checkpoints]
    and [recovery.bytes] counters, and a [recovery.restore.ns] span around
    payload decoding on resume. *)

type checkpointing = {
  every : int;  (** epochs between snapshots; must be > 0 *)
  path : string;  (** snapshot file, atomically overwritten each time *)
}

(** One lifeguard's resumable engine, as first-class operations.  ['s] is
    the engine state, ['r] its report.  Obtain instances from {!ops_of}
    (or the typed wrappers below); the record is exposed so [Crash_sim]
    and the QA crash fuzzer can drive any lifeguard generically. *)
type ('s, 'r) ops = {
  tag : Snapshot.lifeguard;
  create : threads:int -> 's;
  feed : 's -> Tracing.Instr.t array array -> unit;
  fed : 's -> int;
  finish : 's -> 'r;
  enc : 's -> string;
  dec : string -> ('s, string) result;
  fp : 'r -> string;  (** canonical report fingerprint *)
}

type packed = Packed : ('s, 'r) ops -> packed

val ops_of :
  ?pool:Butterfly.Domain_pool.t ->
  ?isolation:bool ->
  ?sequential:bool ->
  ?two_phase:bool ->
  Snapshot.lifeguard ->
  packed
(** [isolation] applies to AddrCheck, [sequential]/[two_phase] to
    TaintCheck; the others ignore them.  Checkpoints are cut at
    sealed-epoch frontiers, so a snapshot taken with or without [pool]
    resumes either way.  On resume the analysis flags are restored from
    the snapshot payload, not from here; [pool] is transient and
    re-supplied. *)

(** Typed builders behind {!ops_of}, for callers that need to keep the
    report type visible — e.g. [lib/serve] packs an engine together with
    a typed report renderer, which the existential {!packed} cannot
    express. *)

val addr_ops :
  ?pool:Butterfly.Domain_pool.t ->
  ?isolation:bool ->
  unit ->
  (Lifeguards.Addrcheck.Resumable.state, Lifeguards.Addrcheck.report) ops

val init_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Initcheck.Resumable.state, Lifeguards.Initcheck.report) ops

val taint_ops :
  ?pool:Butterfly.Domain_pool.t ->
  ?sequential:bool ->
  ?two_phase:bool ->
  unit ->
  (Lifeguards.Taintcheck.Resumable.state, Lifeguards.Taintcheck.report) ops

val race_ops :
  ?pool:Butterfly.Domain_pool.t ->
  unit ->
  (Lifeguards.Racecheck.Resumable.state, Lifeguards.Racecheck.report) ops

val rows_of : Butterfly.Epochs.t -> Tracing.Instr.t array array array
(** The grid as epoch rows, [rows.(epoch).(tid)]. *)

val write_checkpoint : ('s, 'r) ops -> path:string -> threads:int -> 's -> int
(** Snapshot the engine state to [path] (atomic), bumping the recovery
    counters; returns the byte size. *)

val run : ('s, 'r) ops -> ?checkpoint:checkpointing -> Butterfly.Epochs.t -> 'r
(** Feed the whole grid, snapshotting after every [every]-th epoch when
    [checkpoint] is given.  Raises [Invalid_argument] if [every <= 0]. *)

val resume :
  ('s, 'r) ops ->
  ?checkpoint:checkpointing ->
  path:string ->
  Butterfly.Epochs.t ->
  ('r, string) result
(** Revive the engine from the snapshot at [path] and feed the remaining
    epochs of the grid.  Stable errors: the {!Snapshot.read_file} errors;
    ["checkpoint is for LIFEGUARD, not LIFEGUARD"];
    ["checkpoint has N threads, trace has M"];
    ["checkpoint is ahead of the trace: N epochs folded, trace has M"];
    ["corrupt checkpoint payload: _"]. *)

(** Typed per-lifeguard conveniences over {!run}/{!resume}. *)

val run_addrcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?isolation:bool ->
  ?checkpoint:checkpointing ->
  Butterfly.Epochs.t ->
  Lifeguards.Addrcheck.report

val resume_addrcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  path:string ->
  Butterfly.Epochs.t ->
  (Lifeguards.Addrcheck.report, string) result

val run_initcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  Butterfly.Epochs.t ->
  Lifeguards.Initcheck.report

val resume_initcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  path:string ->
  Butterfly.Epochs.t ->
  (Lifeguards.Initcheck.report, string) result

val run_taintcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?sequential:bool ->
  ?two_phase:bool ->
  ?checkpoint:checkpointing ->
  Butterfly.Epochs.t ->
  Lifeguards.Taintcheck.report

val resume_taintcheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  path:string ->
  Butterfly.Epochs.t ->
  (Lifeguards.Taintcheck.report, string) result

val run_racecheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  Butterfly.Epochs.t ->
  Lifeguards.Racecheck.report

val resume_racecheck :
  ?pool:Butterfly.Domain_pool.t ->
  ?checkpoint:checkpointing ->
  path:string ->
  Butterfly.Epochs.t ->
  (Lifeguards.Racecheck.report, string) result
