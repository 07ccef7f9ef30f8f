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

    [run] is {!Engine.run}: it creates an engine, feeds every row of
    the grid ({!Butterfly.Epochs.iter_rows}) and finishes.
    With [pool], each epoch's pass-2 block evaluations fan out on the
    caller's domain pool ({!Butterfly.Window}) and the
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

(** The analysis variant: [sequential] and [two_phase] of {!run}. *)
type params = { sequential : bool; two_phase : bool }

(** The engine: TaintCheck as a {!Butterfly.Window} kernel, under the
    window contract of {!Butterfly.Window.S}.  Pass 1 indexes each
    block's transfer functions by destination; the master step updates
    SOS{_l-1} element by element into SOS{_l} from the LASTCHECK tables
    of epoch [l-2] (their tainted entries are GEN, their untainted ones
    KILL) and seals the rows pass 2 reads; pass 2 resolves the block's
    checks against rows [l-1 .. l+1], answering head GEN/KILL and the
    other threads' GEN of [l-2] by lookups in the LASTCHECK tables; the
    commit adds the block's table to LASTCHECK row [l].  Rows behind: 1,
    so LASTCHECK rows the window has passed are pruned from the state
    and from checkpoints.  The analysis variant travels inside the
    payload. *)
module Engine :
  Butterfly.Window.S
    with type env = unit
     and type params = params
     and type report = report

(**/**)

(** Test-only fault injection, consumed by the QA mutation smoke test
    ([test/test_qa.ml]): with [break_binop_meet] set, a binop's transfer
    function drops its second source — an unsound meet that the
    differential fuzz engine must catch as a Theorem 6.2 violation.
    Never set this outside tests. *)
module Testing : sig
  val break_binop_meet : bool ref
end

val lsos_cardinal :
  head_gen:int list ->
  head_kill:int list ->
  sos:int list ->
  others_gen:int list list ->
  int
(** [|LSOS|] as the [lifeguard.sos_size_hwm] gauge counts it — by
    membership, without building the set — for the block whose head
    GEN/KILL, SOS{_l} and other threads' epoch-[l-2] GEN sets are given.
    Exposed for the property that it equals the built set's
    cardinality. *)

type lastcheck
(** One block's LASTCHECK table: each location it resolved, with its
    last verdict ([true] = tainted). *)

val lastcheck_of_list : (Tracing.Addr.t * bool) list -> lastcheck
(** The table of these entries; a later entry for a location replaces
    an earlier one. *)

val sos_step :
  prev:Set.Make(Int).t ->
  two_back:lastcheck array ->
  three_back:lastcheck array ->
  Set.Make(Int).t
(** The master step's SOS update, [SOS{_l} = GEN{_l-2} ∪ (SOS{_l-1} −
    KILL{_l-2})], applied to [prev = SOS{_l-1}] element by element from
    LASTCHECK rows [l-2] ([two_back]) and [l-3] ([three_back]), indexed
    by tid.  Exposed for the property that it equals the union step
    over the sealed GEN/KILL sets, and for its allocation budget. *)
