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

    [run] is {!Engine.run}: the engine fed every row of the grid
    ({!Butterfly.Epochs.iter_rows}), then finished.  [pool] runs the
    engine's window on the caller's {!Butterfly.Domain_pool}
    (each epoch's pass 2 is split into one share of threads per pool
    domain, the caller's included); the pool may
    be reused across calls and the caller shuts it down.  The report is
    identical either way — property-tested and continuously fuzzed
    ([lib/qa], [test/test_engine.ml]). *)

val flagged_addresses : report -> Butterfly.Interval_set.t
val pp_error : Format.formatter -> error -> unit

val fingerprint : report -> string
(** Canonical one-line digest of a report (counts, every error, the full
    SOS history and per-block stats).  Two reports fingerprint equal iff
    they are semantically identical — the equality used by the
    resume-equivalence and differential test suites. *)

(** The engine: AddrCheck as a {!Butterfly.Window} kernel, under the
    window contract of {!Butterfly.Window.S}.  [params] is [isolation]
    (see {!run}).  The isolation check reads a sliding window of per-row
    access footprints, finalized and pruned as the wing passes each row,
    and takes each block's state changes from the row window's pass-1
    summaries.  Snapshots serialize fact sets as canonical interval
    lists. *)
module Engine :
  Butterfly.Window.S
    with type env = unit
     and type params = bool
     and type report = report
