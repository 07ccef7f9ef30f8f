(** Ground-truth comparisons for the soundness theorems.

    The paper's guarantees quantify over valid orderings: any error the
    sequential lifeguard would report on {e some} valid ordering must also
    be reported by the butterfly lifeguard (Theorems 6.1, 6.2).  This
    module enumerates (small traces) or samples (large traces) valid
    orderings, runs the sequential lifeguards over them, and compares. *)

type verdict = {
  sound : bool;  (** butterfly findings cover every sequential finding *)
  orderings_checked : int;
  exhaustive : bool;  (** all valid orderings were enumerated *)
  missed : string list;  (** descriptions of any violations found *)
}

val addrcheck_zero_false_negatives :
  ?model:Memmodel.Consistency.t ->
  ?cap:int ->
  ?samples:int ->
  ?seed:int ->
  ?pool:Butterfly.Domain_pool.t ->
  Tracing.Program.t ->
  verdict
(** Splits the program at its heartbeats, runs butterfly AddrCheck, and
    checks that every address flagged by sequential AddrCheck under any
    enumerated (or sampled, when enumeration exceeds [cap]) valid ordering
    is also flagged.  [pool] runs the butterfly side's streaming
    scheduler on a domain pool (see {!Addrcheck.run}), so the soundness
    theorem is checked against the parallel deployment too. *)

val initcheck_zero_false_negatives :
  ?model:Memmodel.Consistency.t ->
  ?cap:int ->
  ?samples:int ->
  ?seed:int ->
  ?pool:Butterfly.Domain_pool.t ->
  Tracing.Program.t ->
  verdict
(** Same for InitCheck: every byte sequential InitCheck flags as read
    uninitialized under any valid ordering must be flagged. *)

val racecheck_zero_false_negatives :
  ?model:Memmodel.Consistency.t ->
  ?cap:int ->
  ?samples:int ->
  ?seed:int ->
  ?pool:Butterfly.Domain_pool.t ->
  Tracing.Program.t ->
  verdict
(** Same for RaceCheck.  Per valid ordering, ground-truth races are the
    conflicting cross-thread pairs left unordered by the explicit
    happens-before graph (program order, the epoch assumption, fork/join
    edges, and that ordering's observed unlock-to-lock edges) whose
    locksets are disjoint; each must appear in butterfly RaceCheck's
    {!Racecheck.flagged_pairs}.  Only meaningful under the default
    [Sequential] model: the graph assumes program order is respected. *)

val taintcheck_zero_false_negatives :
  ?model:Memmodel.Consistency.t ->
  ?cap:int ->
  ?samples:int ->
  ?seed:int ->
  ?sequential:bool ->
  ?two_phase:bool ->
  ?pool:Butterfly.Domain_pool.t ->
  Tracing.Program.t ->
  verdict
(** Same for TaintCheck: every sink location flagged sequentially under any
    valid ordering must be flagged by butterfly TaintCheck.  When checking
    a relaxed [model], pass [~sequential:false] so the checker uses the
    relaxed termination condition.  [pool] runs the butterfly side on a
    domain pool (see {!Taintcheck.run}), checking the theorem against the
    parallel deployment. *)
