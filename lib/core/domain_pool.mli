(** A reusable fixed-size pool of domains, the calling domain included.

    OCaml 5 domains are heavyweight (each owns a minor heap and a share of
    the GC): spawning one per task — or one per application thread, as the
    first parallel driver did — oversubscribes the machine as soon as the
    trace has more threads than the host has cores.  A pool of [n]
    domains counts the domain that creates and drives it: it spawns
    [n - 1] workers, capped so that [n] stays within {!max_domains} (the
    runtime's recommended domain count), and multiplexes any number of
    tasks onto them.  The caller is expected to do its own share of each
    batch ({!shares}) while the workers do theirs; a pool of one domain
    spawns nothing and runs every task on the caller.

    Scheduling discipline:

    - {b Bounded per-worker queues.}  Each worker owns a FIFO of at most
      [queue_capacity] tasks.  Tasks are assigned round-robin, so the
      assignment (and therefore the work each worker performs) is
      deterministic for a deterministic submission sequence.
    - {b Backpressure on submit.}  When the target worker's queue is full,
      {!async} blocks the submitter until the worker drains — a producer
      can never race unboundedly ahead of the pool.

    Telemetry (under the installed {!Obs} sink, labelled [pool=<name>]):
    [pool.size] and [pool.utilization] gauges, [pool.queue_depth] and
    [pool.submit_wait.ns] histograms (queue occupancy at submit, time the
    submitter spent blocked on backpressure), and a [pool.task.ns] span
    per task run by {!async} (the caller's own share of a batch is not a
    task, so it is not timed there).

    Concurrency contract: tasks run on worker domains and must not call
    {!async} or {!await} on the pool that runs them (a task
    waiting for a task queued behind it would deadlock the worker).  All
    submissions must come from a single coordinating domain at a time —
    exactly the single-writer discipline the butterfly drivers already
    follow. *)

type t

val max_domains : unit -> int
(** Upper bound on pool size: [max 1 (Domain.recommended_domain_count ())]. *)

val create : ?name:string -> ?queue_capacity:int -> domains:int -> unit -> t
(** [create ~domains ()] makes a pool of [n = max 1 (min domains
    (max_domains ()))] domains, the caller included: it spawns [n - 1]
    workers.  [name] labels the pool's telemetry (default ["pool"]);
    [queue_capacity] bounds each worker's task FIFO (default [64]).
    Raises [Invalid_argument] if [domains <= 0] or [queue_capacity <= 0]. *)

val size : t -> int
(** Number of domains in the pool, the caller included: the spawned
    workers plus one. *)

val shares : t -> int -> int
(** [shares t n] is how many shares a batch of [n] independent items
    splits into on this pool: one per domain, the caller's included,
    and never more than [n] (at least 1).  Raises [Invalid_argument] on
    a pool that has been {!shutdown}. *)

val name : t -> string

type 'a future
(** The pending result of an {!async} task. *)

val async : t -> (unit -> 'a) -> 'a future
(** Enqueue a task on the next worker (round-robin).  Blocks while that
    worker's queue is full (backpressure).  On a pool of one domain,
    which has no worker, the task runs on the caller before [async]
    returns.  Raises [Invalid_argument] on a pool that has been
    {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task has run; returns its result or re-raises the
    exception it terminated with.  Idempotent. *)

val poll : 'a future -> bool
(** [true] once the task has finished (successfully or not): {!await}
    will return without blocking.  Never blocks; safe from the
    submitting domain at any time. *)

val shutdown : t -> unit
(** Drain every queue, stop and join all workers.  Idempotent.  Every
    pool must be shut down before process exit — parked domains would
    otherwise keep the runtime alive. *)

val with_pool :
  ?name:string -> ?queue_capacity:int -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool, shutting it down
    afterwards (also on exceptions). *)
