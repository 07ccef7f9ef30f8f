(** Butterfly INITCHECK: uninitialized-read detection over the window.

    A direct instantiation of the generic framework (Section 5): facts are
    {e definitely-defined} locations, so the analysis is
    reaching-expressions flavoured — a location counts as defined at a read
    only if it is defined along {e every} valid ordering.  GEN is a write's
    destination byte; KILL is a [malloc]/[free] range (fresh memory holds
    garbage).  A read of a location outside IN is flagged.

    Like the other butterfly lifeguards: zero false negatives (a read that
    is uninitialized under some valid ordering is always flagged), false
    positives only from potential concurrency.  Unlike AddrCheck it needs
    no extra isolation machinery — the framework's IN sets are exactly the
    check. *)

type error = {
  id : Butterfly.Instr_id.t;
  addrs : Butterfly.Interval_set.t;  (** possibly-undefined bytes read *)
}

type report = {
  errors : error list;
  flagged_reads : int;
  total_reads : int;
  sos : Butterfly.Interval_set.t array;  (** definitely-defined SOS per epoch *)
}

val run : ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> report
(** {!Engine.run}: the engine fed every row of the grid
    ({!Butterfly.Epochs.iter_rows}), then finished.  [pool] runs its
    window on the caller's pool (see {!Addrcheck.run}); the
    report is identical either way. *)

val flagged_addresses : report -> Butterfly.Interval_set.t
val pp_error : Format.formatter -> error -> unit

val fingerprint : report -> string
(** Canonical one-line digest of a report (counts, every error, the full
    SOS history).  Two reports fingerprint equal iff they are
    semantically identical — the equality used by the resume-equivalence
    and differential test suites. *)

(** The engine: InitCheck as a {!Butterfly.Window} kernel, under the
    window contract of {!Butterfly.Window.S}.  It has no analysis
    settings.  Snapshots serialize fact sets as canonical interval
    lists. *)
module Engine :
  Butterfly.Window.S
    with type env = unit
     and type params = unit
     and type report = report
