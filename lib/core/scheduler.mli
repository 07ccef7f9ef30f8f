(** Online sliding-window driver (the processing discipline of Section 4.3).

    {!Dataflow.Make}'s [run] is a batch driver over a complete execution.
    A deployed lifeguard instead consumes the execution as it is produced,
    one epoch at a time: every input (CLI traces in either encoding,
    checkpoint resume, the serving daemon) reaches the engines as whole
    epoch rows — row [l] holds each thread's epoch-[l] block.  This module
    drives the same analysis over that stream: {!Make.feed_row} runs
    pass 1 over the new row on the calling domain, then pass 2 of epoch
    [l-1], whose trailing row has now arrived (the butterfly needs the
    tail's summaries); SOS{_l+1} is committed right after.  Only a
    constant number of epochs of state is ever resident — the point of
    the sliding window — and {!Make.max_resident_epochs} exposes the
    high-water mark (four rows, [l-3 .. l], just before epoch [l-1] is
    processed) so tests can verify boundedness.

    {b Pass 2} goes through {!pass2_epoch}, the one per-epoch fan-out in
    the tree: one task per thread computes the meet, the LSOS and the
    body's views from frozen inputs.  With a {!Domain_pool.t} the tasks
    run on the pool and buffer their views, which the master hands to
    [on_instr] in tid order at each task's commit; without one, each
    task runs on the master right before its commit and hands its views
    over as it makes them.  The master remains the single writer of SOS
    and epoch summaries, so [on_instr] observes the same epoch-major /
    thread-minor / instruction-order sequence in both modes.

    The per-instruction views delivered to [on_instr] are identical to the
    batch driver's in both modes (the equivalence is property-tested over
    thousands of random grids; see [test/test_scheduler.ml]). *)

module Make (P : Dataflow.PROBLEM) : sig
  module D : module type of Dataflow.Make (P)

  type t

  val create :
    ?pool:Domain_pool.t ->
    threads:int ->
    on_instr:(D.instr_view -> unit) ->
    unit ->
    t
  (** With [pool], each epoch's pass 2 runs as pool tasks (see above).
      The scheduler does not own the pool: the caller shuts it down.  All
      [feed_row]/[finish] calls must come from the same domain that
      created the scheduler (the master). *)

  val feed_row : t -> Tracing.Instr.t array array -> unit
  (** Deliver the next epoch row, indexed by tid: pass 1 summarizes it,
      then pass 2 of the previous epoch runs and its views reach
      [on_instr] before [feed_row] returns.  Raises [Invalid_argument]
      after {!finish} or for a row whose width is not [threads]. *)

  val finish : t -> unit
  (** End of the execution: runs pass 2 of the last epoch (its trailing
      row is empty).  An empty feed still owns one (empty) epoch, as in
      {!Epochs.of_program}.  Idempotent. *)

  val run_epochs :
    ?pool:Domain_pool.t ->
    on_instr:(D.instr_view -> unit) ->
    Epochs.t ->
    t
  (** Convenience driver: {!create}, feed every row of the grid
      ({!Epochs.iter_rows}), {!finish}.  The resulting view sequence and
      SOS match the batch driver's on the same grid. *)

  val threads : t -> int

  val summary_row : t -> int -> D.block_summary array
  (** [summary_row t l] is the pass-1 summary row of epoch [l] while the
      window holds it: from row [epochs_completed t - 2] up to the last
      row fed.  Rows outside the execution read as empty summaries.
      Raises [Invalid_argument] for a row the window has retired. *)

  val sos : t -> D.Set.t
  (** The most recently committed strongly ordered state. *)

  val sos_history : t -> D.Set.t array
  (** All SOS levels computed so far, [SOS_0 .. SOS_(processed+1)].  After
      a full drain this matches the batch driver's [result.sos] array. *)

  val epochs_completed : t -> int
  (** Epochs whose second pass has run and whose views have reached
      [on_instr]. *)

  val max_resident_epochs : t -> int
  (** High-water mark of summary rows simultaneously resident. *)

  (** {2 Checkpointing}

      The durable state of a scheduler is exactly its bounded sliding
      window — the resident summary rows (each carrying its block's
      instructions), the epoch summaries, the SOS levels and the cursor
      counters.  {!encode_state} serializes it; {!decode_state} rebuilds a
      live scheduler that continues exactly where the snapshot left off:
      feeding the remaining rows produces the same [on_instr] view
      sequence and SOS history as an uninterrupted run (property-tested
      in [test/test_recovery.ml]).  The fact-set representation is
      problem-specific, so the caller supplies its codec; the payload
      carries no framing — wrap it in a {!Tracing.Binio.frame} (as
      [lib/recovery] does) before persisting. *)

  type set_codec = {
    put_set : Tracing.Binio.W.t -> D.Set.t -> unit;
    get_set : Tracing.Binio.R.t -> D.Set.t;
  }

  val encode_state : set:set_codec -> t -> string

  val decode_state :
    set:set_codec ->
    ?pool:Domain_pool.t ->
    on_instr:(D.instr_view -> unit) ->
    string ->
    t
  (** Raises {!Tracing.Binio.R.Corrupt} on a malformed payload, including
      a summary row whose width disagrees with the thread count.  [pool]
      and [on_instr] are the transient plumbing re-supplied on restore;
      they play the same roles as in {!create}. *)
end

(** Pass 2 of one epoch, fanned out per thread.

    Every epoch-incremental engine runs pass 2 through this function:
    {!Make} for the {!Dataflow.PROBLEM} lifeguards (AddrCheck,
    InitCheck), and the engines outside it (TaintCheck's window-wide
    transfer-function chase, RaceCheck's happens-before checks).  They
    process one epoch at a time once its trailing wing has arrived.
    Every block of that epoch reads only frozen inputs — pass-1 facts of
    epochs [l-1 .. l+1] and the cross-block state the master sealed after
    committing epoch [l-1] — so the blocks are independent (Lemma 5.2).

    [pass2_epoch ?pool ~threads ~pass2 ~commit2 l] runs
    [pass2 ~epoch:l ~tid] for every [tid] in [0 .. threads-1] — inline
    without [pool], as pool tasks with it — and calls
    [commit2 ~epoch:l ~tid] on the calling domain (the master) in tid
    order, so every observable result is identical with and without a
    pool.  [pass2] must not write shared state.  A task that raises
    re-raises on the master at its commit point, after the commits of
    the threads before it; the pool survives. *)
val pass2_epoch :
  ?pool:Domain_pool.t ->
  threads:int ->
  pass2:(epoch:int -> tid:int -> 'r) ->
  commit2:(epoch:int -> tid:int -> 'r -> unit) ->
  int ->
  unit
