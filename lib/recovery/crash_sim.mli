(** Fault-injection harness for checkpoint/restore.

    Simulates a monitor that dies mid-stream: feed the grid with periodic
    checkpoints, abandon the in-memory state at a chosen (or seeded)
    epoch, revive from the latest on-disk snapshot — or from scratch when
    the crash precedes the first checkpoint — and compare the recovered
    report's fingerprint against an uninterrupted run.  Any inequality is
    a recovery bug. *)

type outcome = {
  crash_epoch : int;  (** epochs fed before the simulated kill *)
  resumed_from : int;  (** snapshot's [next_epoch]; 0 with no snapshot *)
  snapshot_bytes : int;  (** size of the snapshot resumed from; 0 if none *)
  straight_fp : string;
  resumed_fp : string;
  equal : bool;
}

val pp_outcome : Format.formatter -> outcome -> unit

val run :
  ?crash_at:int ->
  ?seed:int ->
  every:int ->
  path:string ->
  ('s, 'r) Runner.ops ->
  Butterfly.Epochs.t ->
  (outcome, string) result
(** Both the doomed and the resumed engine are built by [ops] — on its
    pool, if it was built with one.  [crash_at] is clamped to
    [0 .. num_epochs]; when absent the crash epoch is drawn
    deterministically from [seed] (default 0).  [path] is overwritten.
    [Error _] propagates a failed resume — which the simulation itself
    never provokes, so it too signals a bug.  Raises [Invalid_argument]
    if [every <= 0]. *)

val run_session :
  ?crash_at:int ->
  ?seed:int ->
  every:int ->
  dir:string ->
  tenant:string ->
  ('s, 'r) Runner.ops ->
  Butterfly.Epochs.t ->
  (outcome, string) result
(** {!run} with the snapshot at {!Snapshot.session_path} — the same
    file a serving daemon would checkpoint this tenant's session to —
    and the whole simulation under [Obs.Scope.with_scope ~tenant], so
    streamed telemetry carries the tenant.  Raises [Invalid_argument]
    on an invalid tenant id (see {!Snapshot.valid_tenant}). *)
