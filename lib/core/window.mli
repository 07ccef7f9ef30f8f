(** The butterfly window: the one online driver every lifeguard runs on
    (the processing discipline of Sections 4.3 and 5).

    A deployed lifeguard consumes the execution as it is produced, one
    epoch row at a time — row [l] holds each thread's epoch-[l] block.
    Every input (CLI traces in either encoding, checkpoint resume, the
    serving daemon) reaches the engines this way.  The two-pass
    framework does not depend on the lifeguard, so this module runs it
    once for all of them; a lifeguard plugs in as a {!KERNEL}, and
    {!Make} turns the kernel into the lifeguard's engine, an {!S}.

    For every row the window:
    + runs pass 1 ({!KERNEL.summarize}) over each block of the row on the
      calling domain (the master);
    + once row [l+1] has arrived, processes epoch [l]: the master step
      ({!KERNEL.step}) seals epoch [l]'s cross-block inputs, pass 2
      ({!KERNEL.eval_block}) fans out through {!pass2_epoch}, and the
      outcomes are committed ({!KERNEL.commit}) on the master in tid
      order;
    + retires the rows the kernel no longer reads.

    Only rows [l - rows_behind .. l+1] are resident while epoch [l] is
    processed, so the window stays bounded — {!S.max_resident} exposes
    the high-water mark, [rows_behind + 2].  The window also owns the
    empty feed, [finish], the row-width and thread-count checks, the
    pipeline telemetry ([butterfly.epochs_processed],
    [butterfly.pass2_instrs], the [butterfly.pass1_summarize.ns] span
    per block, the master's [butterfly.step.ns] and [butterfly.commit.ns]
    spans once per epoch (the commit span sums the epoch's commits),
    [scheduler.blocks_closed], [scheduler.window_occupancy{,_hwm}],
    labelled [problem=<kernel name>, driver=streaming]) and the
    checkpoint payload. *)

(** What a lifeguard supplies to the window. *)
module type KERNEL = sig
  val name : string
  (** The [problem] label of the pipeline telemetry and the prefix of
      decode errors. *)

  type env
  (** Transient plumbing, re-supplied on restore (the generic dataflow
      kernel's view sink; [unit] for the lifeguards). *)

  type params
  (** What the caller chooses at creation; carried in the payload
      header. *)

  type summary
  (** Pass-1 summary of one block: a pure function of the block. *)

  type state
  (** The kernel's master-side tables and report accumulators. *)

  type sealed
  (** The inputs the master seals for one epoch's pass 2. *)

  type outcome
  (** What pass 2 learns about one block. *)

  type report

  val rows_behind : int
  (** How many rows before epoch [l] pass 2 of [l] (or the step) still
      reads: 2 for the {!Dataflow.PROBLEM} kernel (LSOS reads row
      [l-2]), 1 for TaintCheck and RaceCheck. *)

  val create : threads:int -> env -> params -> state

  val summarize : state -> Block.t -> summary
  (** Pass 1; runs on the master as rows arrive. *)

  val step :
    state -> inline:bool -> row:(int -> summary array option) -> int -> sealed
  (** The master step before epoch [l]'s pass 2: SOS, epoch summaries,
      entry locksets and whatever else every block of the epoch shares.
      [row e] is summary row [e] while the window holds it ([None]
      outside the execution); rows [l - rows_behind .. l+1] are
      resident.  [inline] is true when the whole of pass 2 runs on the
      master, each block right before its commit (no pool, a pool of one
      domain, or a single thread). *)

  val eval_block : sealed -> epoch:int -> tid:int -> Block.t -> outcome
  (** Pass 2 of one block.  May run on a pool worker: it must read only
      [sealed] and the block, and write no shared state (an [inline]
      step may let it hand results straight to the master). *)

  val commit : state -> epoch:int -> tid:int -> outcome -> unit
  (** On the master, epoch-major and thread-minor. *)

  val report : state -> row:(int -> summary array option) -> epochs:int -> report
  (** After the last epoch has been committed; rows are as after that
      epoch's processing. *)

  val put_params : Tracing.Binio.W.t -> params -> unit
  val get_params : Tracing.Binio.R.t -> params

  val put_body : Tracing.Binio.W.t -> state -> unit
  (** The kernel's non-derived tables. *)

  val get_body :
    Tracing.Binio.R.t -> threads:int -> processed:int -> env -> params -> state
  (** Raises {!Tracing.Binio.R.Corrupt} on tables that disagree with
      [processed], the number of epochs committed. *)
end

(** A running window: the engine of one lifeguard.

    The contract every engine keeps, whatever its kernel:
    - {b feed}: rows arrive one at a time, in epoch order, each exactly
      [threads] wide ({!feed_row});
    - {b checkpoint between rows}: between any two rows the engine can be
      {!encode}d and later {!decode}d, and the revived engine's report is
      byte-identical to an uninterrupted run's;
    - {b finish is idempotent}: {!finish} processes the last epoch and
      caches the report, so a second call returns the same report;
    - {b no row after finish}: {!feed_row} refuses a row once {!finish}
      has run;
    - {b decode never raises}: a malformed payload is an [Error]. *)
module type S = sig
  type env
  (** Transient plumbing, re-supplied on {!decode}. *)

  type params
  (** The analysis settings chosen at {!create}; carried in the payload,
      so a revived engine keeps them. *)

  type summary
  (** The pass-1 summary of one block. *)

  type report
  type t

  val create : ?pool:Domain_pool.t -> threads:int -> env -> params -> t
  (** With [pool], each epoch's pass 2 is shared between the pool's
      workers and the caller (see {!pass2_epoch}); the report is
      identical without one.  The window
      does not own the pool: the caller shuts it down.  All calls must
      come from the domain that created the window (the master).  Raises
      [Invalid_argument] unless [threads > 0]. *)

  val feed_row : t -> Tracing.Instr.t array array -> unit
  (** Deliver the next epoch row, indexed by tid: pass 1 summarizes it,
      then the previous epoch is processed.  Raises [Invalid_argument]
      after {!finish} or for a row whose width is not [threads]. *)

  val finish : t -> report
  (** End of the execution: processes the last epoch (its trailing row
      reads as empty).  An empty feed still owns one (empty) epoch, as
      in {!Epochs.of_program}.  A second call returns the same report. *)

  val run : ?pool:Domain_pool.t -> env -> params -> Epochs.t -> report
  (** {!create}, feed every row of the grid ({!Epochs.iter_rows}),
      {!finish}. *)

  val threads : t -> int

  val fed : t -> int
  (** Rows fed so far. *)

  val processed : t -> int
  (** Epochs whose pass 2 has been committed. *)

  val max_resident : t -> int
  (** High-water mark of rows simultaneously resident. *)

  val summary_row : t -> int -> summary array option
  (** Summary row [l] while the window holds it, [None] outside the
      execution.  Raises [Invalid_argument] for a row the window has
      retired. *)

  (** {2 Checkpointing}

      The payload is
      [threads, <params>, fed, processed, <kernel body>, raw rows]: the
      resident raw rows, from which decode re-derives the summaries.  It
      carries no framing — [lib/recovery] wraps it in a versioned,
      CRC-guarded envelope. *)

  val encode : t -> string
  (** Between rows; a payload encoded after {!finish} does not decode. *)

  val decode : ?pool:Domain_pool.t -> env -> string -> (t, string) result
  (** [Error "<name> state: ..."] on a malformed payload, including
      rows whose width is not the thread count and cursors that
      disagree: between rows, [processed = max 0 (fed - 1)] and exactly
      rows [max 0 (processed - rows_behind) .. fed - 1] are resident.
      Never raises. *)
end

module Make (K : KERNEL) :
  S
    with type env = K.env
     and type params = K.params
     and type summary = K.summary
     and type report = K.report

(** Pass 2 of one epoch, fanned out over the pool's domains: the one
    per-epoch fan-out in the tree.

    Every block of epoch [l] reads only frozen inputs — pass-1 summaries
    of nearby rows and the state the master sealed before the fan-out —
    so the blocks are independent (Lemma 5.2).

    [pass2_epoch ?pool ~threads ~pass2 ~commit2 l] runs
    [pass2 ~epoch:l ~tid] for every [tid] in [0 .. threads-1] and calls
    [commit2 ~epoch:l ~tid] on the calling domain (the master) in tid
    order, so every observable result is identical with and without a
    pool.  Without [pool] (or when {!Domain_pool.shares} gives one
    share) each block runs inline, right before its commit.  With it,
    the tids split into [shares] contiguous ranges: ranges [1 ..] are
    submitted as one pool task each (at most [Domain_pool.size pool - 1]
    tasks per epoch) and range [0] runs on the caller, each block
    committed as it is evaluated, before the workers' results are
    committed in order.  [pass2] must not write shared state.  A block
    that raises re-raises on the master at its commit point, after the
    commits of the threads before it; the pool survives.  Raises
    [Invalid_argument] on a pool that has been shut down. *)
val pass2_epoch :
  ?pool:Domain_pool.t ->
  threads:int ->
  pass2:(epoch:int -> tid:int -> 'r) ->
  commit2:(epoch:int -> tid:int -> 'r -> unit) ->
  int ->
  unit
