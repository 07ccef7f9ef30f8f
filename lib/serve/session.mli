(** One tenant's analysis session.

    A session wraps a lifeguard's [Resumable] engine (built from the
    HELLO's lifeguard/driver config via the {!Report.engine} table)
    plus a queue of decoded-but-unfed epoch rows.  The daemon owns
    the pacing: it {!enqueue}s every DATA chunk as it arrives and calls
    {!step} from its fairness rotation, one epoch at a time, so no
    tenant can monopolize the feeding domain.

    Determinism: a DATA chunk is a complete binary trace; its rows (as
    delimited by embedded heartbeats) are fed to the engine in arrival
    order, so the feed sequence equals the batch run's
    [Epochs.of_program] sequence whenever the client chunks the same
    program — which is why the daemon's {!report} is byte-identical to
    the batch CLI's [--json] line (the differential battery pins this
    for every lifeguard × driver). *)

type t

val create :
  ?pool:Butterfly.Domain_pool.t ->
  ?state_dir:string ->
  Wire.hello ->
  (t, string) result
(** Validate the HELLO and build the engine.  With [state_dir], a
    session-keyed snapshot for this tenant+lifeguard is revived (the
    eviction path's inverse) — the engine resumes at the snapshot's
    epoch frontier and {!fed} reflects it.  Stable errors:
    ["bad hello: invalid tenant id _"], ["bad hello: threads must be >= 1"],
    ["bad hello: driver needs a daemon started with --domains"] (a
    [`Wavefront] hello, which old clients may still send, runs as
    [`Pooled]),
    ["bad hello: state=flat is no longer supported"] (the retired flat
    fact-table backend; old clients still send the byte),
    the {!Recovery.Runner.revive} checkpoint errors, and
    ["tenant T has a L session on disk, not L'"] when the tenant's
    on-disk session was checkpointed under a different lifeguard. *)

val tenant : t -> string
val lifeguard : t -> Recovery.Snapshot.lifeguard
val threads : t -> int

val enqueue : t -> string -> (int, string) result
(** Decode one DATA chunk (a complete binary trace; embedded heartbeats
    delimit epochs) and queue its rows.  Returns the number of rows
    queued.  Stable errors, prefixed ["bad trace chunk: "] (codec
    rejections, thread-count mismatch), plus
    ["bad stream: DATA after FIN"]. *)

val step : t -> bool
(** Feed one queued row to the engine — under
    [Obs.Scope.with_scope ~tenant ~epoch ~phase:"serve"], so streamed
    telemetry is attributable per tenant.  [false] if the queue was
    empty. *)

val fed : t -> int
(** Epochs the engine has folded. *)

val queued : t -> int
(** Rows decoded but not yet fed. *)

val frontier : t -> int
(** [fed + queued] — the epoch the client must send next; HELLO_OK's
    [resumed_from]. *)

val fin : t -> unit
(** Record the client's FIN; further DATA is rejected. *)

val fin_received : t -> bool

val finished : t -> bool
(** FIN received and every queued row fed — the report is due. *)

val report : t -> string
(** Drain the queue, finish the engine and render the canonical JSON
    line ({!Report}).  Idempotent (the first result is cached); a
    session that has reported cannot be fed or evicted. *)

val checkpoint : t -> dir:string -> (int, string) result
(** Snapshot the engine at its current sealed-epoch frontier (queued
    rows stay queued) to {!Recovery.Snapshot.session_path}; returns the
    snapshot size.  This is the daemon's periodic crash-survivability
    checkpoint.  Fails on a session that has already reported, and with
    the {!Recovery.Snapshot.Write_error} message when the snapshot cannot
    be written. *)

val evict : t -> dir:string -> (int, string) result
(** Drain the queue and checkpoint the engine to
    {!Recovery.Snapshot.session_path} — the idle/oversubscription
    eviction path; returns the snapshot size.  A later {!create} with
    the same [state_dir] revives it transparently.  Fails like
    {!checkpoint}; a failed eviction leaves the session usable. *)

val stats_json : t -> Obs.Json.t
(** Session card for the STATUS surface: tenant, config, fed/queued
    counts, fin/reported flags. *)
