(** Online sliding-window driver (the processing discipline of Section 4.3).

    {!Dataflow.Make}'s [run] is a batch driver over a complete execution.
    A deployed lifeguard instead consumes each thread's event stream as the
    application produces it.  This module drives the same analysis
    incrementally: pass 1 runs the moment a heartbeat closes a block;
    pass 2 for epoch [l] runs as soon as every thread has delivered its
    epoch-[l+1] block (the butterfly needs the tail's summaries); and
    SOS{_l+2} is committed right after.  Only a constant number of epochs
    of state is ever resident — the point of the sliding window — and
    {!max_resident_epochs} exposes the high-water mark so tests can verify
    boundedness.

    {b Parallel mode.}  Passing a {!Domain_pool.t} to {!create} dispatches
    the per-block work to the pool, exploiting exactly the structure the
    paper identifies (§4.3): pass-1 summaries are per-block-local, so each
    runs on a worker the moment its heartbeat lands, while the master keeps
    ingesting events; pass-2 per-thread work reads only the (by then
    frozen) wing summaries and SOS, so one task per thread fans out when a
    window closes.  The master remains the single writer of SOS and epoch
    summaries, and re-serializes buffered views so [on_instr] observes the
    same epoch-major / thread-minor / instruction-order sequence as the
    sequential path.

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
  (** With [pool], pass 1 and pass 2 run as pool tasks (see above).  The
      scheduler does not own the pool: the caller shuts it down.  All
      [feed]/[finish] calls must come from the same domain that created
      the scheduler (the master). *)

  val feed : t -> Tracing.Tid.t -> Tracing.Event.t -> unit
  (** Deliver the next event of one thread's stream.  Heartbeats close the
      thread's current block; any pass-2 work whose window is now complete
      runs before [feed] returns.  Raises [Invalid_argument] after
      {!finish} or for an out-of-range thread. *)

  val feed_trace : t -> Tracing.Tid.t -> Tracing.Trace.t -> unit

  val finish : t -> unit
  (** End of all streams: closes trailing partial blocks (padding threads
      to a common epoch count) and drains the remaining window; afterwards
      the pool holds no work for this scheduler.  Idempotent. *)

  val run_epochs :
    ?pool:Domain_pool.t ->
    on_instr:(D.instr_view -> unit) ->
    Epochs.t ->
    t
  (** Convenience driver: replays a complete epoch grid through the
      sliding window (epoch-major feed, one heartbeat per interior block
      boundary) and {!finish}es.  The resulting view sequence and SOS
      match the batch driver's on the same grid. *)

  val sos : t -> D.Set.t
  (** The most recently committed strongly ordered state. *)

  val sos_history : t -> D.Set.t array
  (** All SOS levels computed so far, [SOS_0 .. SOS_(processed+1)].  After
      a full drain this matches the batch driver's [result.sos] array. *)

  val epochs_completed : t -> int
  (** Epochs whose second pass has run and whose views have reached
      [on_instr]. *)

  val max_resident_epochs : t -> int
  (** High-water mark of epochs simultaneously buffered. *)

  (** {2 Checkpointing}

      The durable state of a scheduler is exactly its bounded sliding
      window — open per-thread buffers, closed-block counts, the resident
      summary/block/epoch-summary rows, the SOS levels and the cursor
      counters.  {!encode_state} serializes it (resolving any in-flight
      pooled pass-1 work first, so snapshots are self-contained);
      {!decode_state} rebuilds a live scheduler that continues exactly
      where the snapshot left off: feeding the remaining events produces
      the same [on_instr] view sequence and SOS history as an
      uninterrupted run (property-tested in [test/test_recovery.ml]).
      The fact-set representation is problem-specific, so the caller
      supplies its codec; the payload carries no framing — wrap it in a
      {!Tracing.Binio.frame} (as [lib/recovery] does) before persisting. *)

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
  (** Raises {!Tracing.Binio.R.Corrupt} on a malformed payload.  [pool]
      and [on_instr] are the transient plumbing re-supplied on restore;
      they play the same roles as in {!create}. *)
end

(** Pass 2 of one epoch, fanned out per thread.

    The epoch-incremental lifeguard engines outside {!Dataflow.PROBLEM}
    (TaintCheck's window-wide transfer-function chase, RaceCheck's
    happens-before checks) process one epoch at a time once its trailing
    wing has arrived.  Every block of that epoch reads only frozen
    inputs — pass-1 facts of epochs [l-1 .. l+1] and the cross-block
    state the master sealed after committing epoch [l-1] — so the
    blocks are independent (Lemma 5.2).

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
