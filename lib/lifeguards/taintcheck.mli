(** Butterfly TAINTCHECK (Section 6.2).

    Taint tracking over the butterfly framework.  Each write produces an
    SSA-like {e transfer function} [x_(l,t,i) <- s] with
    [s ∈ {⊥ (tainted), ⊤ (untainted), {a}, {a,b} (inheritance)}].  A
    location may be tainted at a point if {e some} valid ordering taints it
    (reaching-definitions flavour): the [Check] resolution chases
    inheritance chains through the window's transfer functions until it
    reaches ⊥, ⊤ or the strongly ordered taint state.

    Resolution is two-phase (Lemma 6.3): chains are first resolved using
    transfer functions from epochs [l-1, l], then from [l, l+1], with
    phase-1 taint conclusions persisting — this rejects impossible
    orderings such as epoch [l+1] writes feeding epoch [l-1] reads.

    Termination: under [~sequential:true] the chase keeps a per-thread
    position and only follows a thread's transfer functions in descending
    program order (the SC condition); otherwise it merely never revisits a
    transfer function (the relaxed condition) — more conservative, hence
    potentially more false positives, but still no false negatives
    (Theorem 6.2). *)

type error = {
  id : Butterfly.Instr_id.t;  (** the sink instruction *)
  sink : Tracing.Addr.t;
}

type block_stats = {
  instrs : int;
  mem_events : int;
  checks_resolved : int;  (** transfer-function resolutions performed *)
}

type report = {
  errors : error list;
  sos_tainted : Tracing.Addr.t list array;
      (** tainted locations in SOS{_l}, per epoch (sorted) *)
  block_stats : block_stats array array;  (** [.(tid).(epoch)] *)
}

val run :
  ?sequential:bool ->
  ?two_phase:bool ->
  ?pool:Butterfly.Domain_pool.t ->
  Butterfly.Epochs.t ->
  report
(** [sequential] defaults to [true] (the machine-model assumption of
    Sections 3–4.3); pass [false] for the relaxed-consistency variant.
    [two_phase] (default [true]) enables the false-positive reduction of
    Lemma 6.3; disabling it is the ablation of that design choice — still
    sound, strictly less precise.

    [run] is the {!Resumable} engine fed every row of the grid: it
    creates an engine, feeds {!Butterfly.Epochs.iter_rows} and finishes.
    With [pool], each epoch's pass-2 block evaluations fan out on the
    caller's domain pool ({!Butterfly.Scheduler.pass2_epoch}) and the
    master commits LASTCHECK/SOS results in thread order, so the report
    is byte-identical with and without a pool (property-tested in
    [test/test_taintcheck_parallel.ml] and [test/test_engine.ml]).  The
    caller owns the pool and shuts it down. *)

val flagged_sinks : report -> Tracing.Addr.t list

val pp_error : Format.formatter -> error -> unit

val fingerprint : report -> string
(** Canonical one-line digest of a report (every error, the full tainted
    SOS history and per-block stats).  Two reports fingerprint equal iff
    they are semantically identical — the equality used by the
    resume-equivalence and differential test suites. *)

(** Checkpointable epoch-incremental engine.

    Feed whole epoch rows one at a time; between any two rows the engine
    can be serialized with {!Resumable.encode} and later revived with
    {!Resumable.decode}, and the resumed run's {!Resumable.finish} report
    is byte-identical to an uninterrupted run's (see [test_recovery]).
    The engine keeps a sliding window: raw rows, pass-1 summaries and
    LASTCHECK rows the window has passed are pruned from the state (and
    hence from checkpoints).  The payload is raw — [lib/recovery] wraps
    it in a versioned, CRC-guarded envelope. *)
module Resumable : sig
  type state

  val create :
    ?pool:Butterfly.Domain_pool.t ->
    ?sequential:bool ->
    ?two_phase:bool ->
    threads:int ->
    unit ->
    state
  (** Pass 1 runs on the caller as rows are fed; with [pool], each epoch's
      pass-2 block evaluations fan out on it.  Results are unchanged. *)

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
  (** [Error _] on any malformed payload (never raises).  The analysis
      variant ([sequential]/[two_phase]) travels inside the payload;
      [pool] is transient plumbing re-supplied on restore. *)
end

(**/**)

(** Test-only fault injection, consumed by the QA mutation smoke test
    ([test/test_qa.ml]): with [break_binop_meet] set, a binop's transfer
    function drops its second source — an unsound meet that the
    differential fuzz engine must catch as a Theorem 6.2 violation.
    Never set this outside tests. *)
module Testing : sig
  val break_binop_meet : bool ref
end
