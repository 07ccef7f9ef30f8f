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
(** Analyze a whole grid: the {!Resumable} engine fed every row of
    {!Butterfly.Epochs.iter_rows}, then finished.  With [pool], each
    epoch's pass-2 block checks fan out on the caller's domain pool
    ({!Butterfly.Scheduler.pass2_epoch}); the report is identical with
    and without one. *)

(** The epoch-incremental engine behind {!run}: feed rows as they
    arrive, snapshot between epochs, resume from the encoded state.  Used
    by {!run}, {!Recovery.Runner} and the crash-sim battery. *)
module Resumable : sig
  type state

  val create :
    ?pool:Butterfly.Domain_pool.t -> threads:int -> unit -> state
  (** With [pool], each epoch's pass-2 block checks fan out on it. *)

  val feed_epoch : state -> Tracing.Instr.t array array -> unit
  (** One grid row, [threads] wide; raises [Invalid_argument] otherwise. *)

  val epochs_fed : state -> int

  val finish : state -> report

  val encode : state -> string
  (** Serialize between [feed_epoch] calls.  The payload retains only the
      sliding window's raw rows (summaries are recomputed on decode) plus
      the accumulated races, statistics and entry-lock history. *)

  val decode :
    ?pool:Butterfly.Domain_pool.t -> string -> (state, string) result
end

(**/**)

(* Test-only fault injection: skipping the same-epoch backward wing makes
   RaceCheck miss races between concurrent blocks of one epoch — the QA
   mutation smoke test proves the oracle battery catches it. *)
module Testing : sig
  val break_same_epoch : bool ref
end
