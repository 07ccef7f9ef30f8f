(** RaceCheck: a happens-before / lockset data-race lifeguard on the
    butterfly window (DESIGN §16).

    Synchronization events ([Lock]/[Unlock]/[Fork]/[Join]) induce a
    happens-before partial order over the grid: program order, the epoch
    assumption (epoch [l] precedes epoch [l+2]), fork edges into strictly
    later epochs and join edges from strictly earlier ones.  Two
    conflicting accesses to one address — cross-thread, at least one a
    write — are reported as a {e may-race} when no happens-before path
    orders them and no common lock guards both.  Within the window the
    analysis is conservative in the sense of Theorem 6.1/6.2: every pair
    that races under some valid ordering is flagged
    ({!Oracle.racecheck_zero_false_negatives}); pairs ordered in every
    valid ordering may still be flagged (may-race, no false negatives).

    The pooled schedule reproduces the sequential reference {!Racecheck_seq.check} byte for byte, pinned by
    the differential battery in [test/test_racecheck.ml]. *)

module Lockset : Set.S with type elt = int
(** Locks are identified by their [Tracing.Addr.t]; a lockset is the set
    held at one program point.  Exposed for the qcheck lattice laws
    (intersection is a lower bound, union monotone). *)

module Id = Butterfly.Instr_id

type kind = R | W

type race = {
  a : Id.t;  (** the later access — the one whose block ran the check *)
  a_kind : kind;
  b : Id.t;  (** the wing access it conflicts with *)
  b_kind : kind;
  addr : Tracing.Addr.t;
}

type block_stats = {
  instrs : int;
  accesses : int;  (** memory accesses the block contributes to pairing *)
  pairs_checked : int;  (** conflicting candidate pairs examined *)
  races : int;
}

type report = {
  races : race list;  (** in commit order: epoch-major, thread-minor *)
  entry_locks : int list array array;
      (** [entry_locks.(l).(t)]: locks thread [t] holds when epoch [l]
          starts, sorted; row [num_epochs] is the final state. *)
  block_stats : block_stats array array;  (** indexed [tid].[epoch] *)
}

val pp_race : Format.formatter -> race -> unit

val flagged_addrs : report -> Tracing.Addr.t list
(** Addresses involved in at least one race, sorted, deduplicated. *)

val flagged_pairs : report -> (Id.t * Id.t * Tracing.Addr.t) list
(** Canonical pair keys (smaller id first), sorted, deduplicated — the
    currency the interleaving oracle compares against. *)

val fingerprint : report -> string
(** Total serialization of a report; equal strings iff byte-identical
    results.  The differential batteries compare drivers through this. *)

val run : ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> report
(** Analyze a whole grid: {!Engine.run}, the engine fed every row of
    {!Butterfly.Epochs.iter_rows}, then finished.  With [pool], each
    epoch's pass-2 block checks fan out on the caller's domain pool
    ({!Butterfly.Window}); the report is identical with
    and without one. *)

(** The engine: RaceCheck as a {!Butterfly.Window} kernel, under the
    window contract of {!Butterfly.Window.S}.  Pass 1 summarizes each
    block's accesses, locks and fork/join targets in one sweep over its
    instruction array, storing the accesses field by field and their
    locksets once per lock state, with no allocation per instruction.
    The master step seals the entry lock row, summary rows [l-1] and
    [l] (each lock state's full lockset, and an int-keyed index from
    address to packed (tid, position) ints) and the entry clocks.
    Pass 2 checks the block's candidate pairs, testing happens-before
    on the clock component and a per-block join array.  Rows behind: 1.
    The checkpoint body holds the accumulated races, statistics and
    entry-lock history; summaries are recomputed on decode. *)
module Engine :
  Butterfly.Window.S
    with type env = unit
     and type params = unit
     and type report = report

(**/**)

(* Test-only fault injection: skipping the same-epoch backward wing makes
   RaceCheck miss races between concurrent blocks of one epoch — the QA
   mutation smoke test proves the oracle battery catches it. *)
module Testing : sig
  val break_same_epoch : bool ref
end

(** Pass 1, exposed for the property that it equals a reference
    summarizer and for its allocation budget ([test/test_racecheck.ml]). *)
module Pass1 : sig
  type t

  val summarize : threads:int -> Butterfly.Block.t -> t
  (** The block's pass-1 summary, as the engine computes it. *)

  type access = {
    index : int;  (** instruction index in the block *)
    addr : Tracing.Addr.t;
    kind : kind;
    held : int list;  (** locks acquired in-block and still held, sorted *)
    released : int list;  (** entry locks already released, sorted *)
  }

  type view = {
    accesses : access list;
        (** index order; per instruction the write, then the reads *)
    fork_max : (int * int) list;
        (** valid fork target -> last [Fork] index, sorted by target *)
    join_min : (int * int) list;
        (** valid join target -> first [Join] index, sorted by target *)
    added : int list;  (** locks acquired in-block and held at exit *)
    removed : int list;  (** entry locks released by exit *)
  }

  val view : t -> view
end
