(** Butterfly ADDRCHECK (Section 6.1).

    AddrCheck instantiated over the butterfly framework: allocations are
    GEN, deallocations are KILL, and the analysis is reaching-expressions
    flavoured (an address is known-allocated only if it is allocated along
    {e every} valid ordering).  Checking is two-part:

    - {b Local} (uses LSOS{_l,t,i}): every access/free must target memory
      that appears allocated within the thread's own strongly ordered view,
      and every malloc must target memory that appears deallocated.
    - {b Isolation} (uses wing summaries): an allocation-state change must
      not be potentially concurrent with any access or other state change
      to the same bytes — a metadata race (Figure 9).

    Flagged events that the actual execution would not flag are false
    positives; Theorem 6.1 guarantees there are no false negatives. *)

type error_kind =
  | Unallocated_access
  | Unallocated_free
  | Double_alloc
  | Metadata_race  (** isolation violation: concurrent state change *)

type error = {
  kind : error_kind;
  addrs : Butterfly.Interval_set.t;
  where : [ `Instr of Butterfly.Instr_id.t | `Block of int * Tracing.Tid.t ];
}

type block_stats = {
  instrs : int;
  mem_events : int;
  flagged_events : int;  (** events this block flagged (for FP accounting) *)
}

type report = {
  errors : error list;
  flagged_accesses : int;  (** memory events flagged across the run *)
  total_accesses : int;
  block_stats : block_stats array array;  (** [.(tid).(epoch)] *)
  sos : Butterfly.Interval_set.t array;  (** allocated-state SOS per epoch *)
}

val run :
  ?isolation:bool ->
  ?pool:Butterfly.Domain_pool.t ->
  Butterfly.Epochs.t ->
  report
(** [isolation] (default [true]) enables the wing-summary isolation check.
    Disabling it is an ablation: local LSOS checks alone miss the
    metadata races of Figure 9 (allocation state changing concurrently
    with an access), reintroducing false negatives — the tests demonstrate
    exactly which errors it loses.

    [run] is the {!Resumable} engine fed every row of the grid
    ({!Butterfly.Epochs.iter_rows}), then finished.  [pool] runs the
    engine's streaming scheduler on the caller's {!Butterfly.Domain_pool}
    (pass 1 and pass 2 as pool tasks); the pool may be reused across
    calls and the caller shuts it down.  The report is identical either
    way — property-tested and continuously fuzzed ([lib/qa],
    [test/test_engine.ml]). *)

val flagged_addresses : report -> Butterfly.Interval_set.t
val pp_error : Format.formatter -> error -> unit

val fingerprint : report -> string
(** Canonical one-line digest of a report (counts, every error, the full
    SOS history and per-block stats).  Two reports fingerprint equal iff
    they are semantically identical — the equality used by the
    resume-equivalence and differential test suites. *)

(** Checkpointable epoch-incremental engine.

    Feed whole epoch rows one at a time; between any two rows the engine
    can be serialized with {!Resumable.encode} and later revived with
    {!Resumable.decode}, and the resumed run's {!Resumable.finish} report
    is byte-identical to an uninterrupted run's (see [test_recovery]).
    The isolation check reads a sliding window of per-row footprints,
    finalized and pruned as the wing passes each row.  The payload is raw — [lib/recovery] wraps
    it in a versioned, CRC-guarded envelope. *)
module Resumable : sig
  type state

  val create :
    ?pool:Butterfly.Domain_pool.t ->
    ?isolation:bool ->
    threads:int ->
    unit ->
    state

  val feed_epoch : state -> Tracing.Instr.t array array -> unit
  (** One epoch row, indexed by tid; width must equal [threads]. *)

  val epochs_fed : state -> int

  val finish : state -> report
  (** Close the final epoch and produce the report.  The state must not
      be used afterwards. *)

  val encode : state -> string

  val decode :
    ?pool:Butterfly.Domain_pool.t ->
    string ->
    (state, string) result
  (** [Error _] on any malformed payload (never raises).  Snapshots
      serialize fact sets as canonical interval lists. *)
end
