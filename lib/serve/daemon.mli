(** The multi-tenant streaming monitor daemon.

    One Unix-domain listener, many concurrent {!Wire} streams, one
    analysis session per tenant — all multiplexed over a single
    coordinating loop.  The single loop is load-bearing: every engine
    submission happens from this one domain, which is exactly the
    single-writer discipline {!Butterfly.Domain_pool} requires, so K
    tenants can share one pool (each pooled session's engine fans out
    from here) without a lock anywhere in the feeding
    path.

    Per tick the loop: selects on the listener and every unthrottled
    connection, reads and decodes what arrived, feeds {e one} epoch row
    per session in round-robin rotation ({!Table.tick}), checkpoints
    sessions crossing a [checkpoint_every] frontier, and ages/evicts
    idle detached sessions.  Backpressure is the read set: a session at
    its queue bound simply stops being read until the rotation drains
    it, bounding every tenant's memory to [max_queued] rows.

    Fault containment: a malformed frame or chunk ends {e that} tenant's
    session with one stable [ERROR] frame; other tenants never notice
    (the frame-protocol fuzz battery pins this). *)

type config = {
  socket : string;  (** Unix-domain socket path; replaced if present *)
  domains : int option;
      (** domains of the shared pool, the daemon's own included (it
          spawns one fewer workers and evaluates its share of each
          epoch); required by pooled hellos *)
  state_dir : string option;  (** session snapshots (eviction, crashes) *)
  checkpoint_every : int option;  (** epochs between periodic snapshots *)
  evict_idle_after : int option;
      (** scheduler ticks a detached session survives before eviction *)
  policy : Policy.t;
}

val config :
  socket:string ->
  ?domains:int ->
  ?state_dir:string ->
  ?checkpoint_every:int ->
  ?evict_idle_after:int ->
  ?policy:Policy.t ->
  unit ->
  config
(** Raises [Invalid_argument] on non-positive intervals, or on
    checkpointing/eviction options without a [state_dir]. *)

val run : ?stop:(unit -> [ `Run | `Quit | `Abort ]) -> config -> unit
(** Serve until [stop] says otherwise (checked once per tick).  [`Quit]
    is a clean shutdown: unreported sessions are evicted to [state_dir]
    snapshots and the socket file removed.  [`Abort] simulates a crash:
    file descriptors close, nothing is flushed — surviving state is
    whatever the periodic checkpoints left on disk, which is what the
    crash/reconnect battery drives.  Installs a memory {!Obs} sink
    (teed with the caller's) that backs the [STATUS] endpoint's
    Prometheus rendering. *)
