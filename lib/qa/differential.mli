(** The differential battery one grid is subjected to.

    Two families of checks, mirroring the two guarantees the repo makes:

    {ul
    {- {b Driver equivalence.}  Every execution driver must produce a
       structurally identical report: the sequential engine, and the
       pooled one (the per-epoch fan-out of {!Butterfly.Window}) on
       each supplied pool.  For
       TaintCheck the equivalence is checked per analysis variant
       (sequential/relaxed chase × two-phase/one-phase).  Reports are
       compared via a canonical fingerprint covering the error list in
       order, totals, per-block statistics and SOS history — not just the
       flagged sets.}
    {- {b Soundness (Theorems 6.1, 6.2).}  For each memory model, the
       valid orderings of the grid are enumerated (or sampled past
       [oracle_cap]) and replayed through the sequential single-trace
       lifeguard; everything it flags on any ordering must be flagged by
       the butterfly run — the zero-false-negative claim, checked
       generatively.}}

    A non-empty mismatch list is a genuine bug in one of the drivers (or
    an unsound analysis change): the fuzz engine shrinks the grid and
    serializes it as a replayable trace. *)

val profile_of : Recovery.Snapshot.lifeguard -> Grid_gen.profile
(** The instruction mix that exercises this lifeguard. *)

type config = {
  oracle_cap : int;
      (** enumerate valid orderings up to this many, else sample *)
  oracle_samples : int;  (** samples drawn when enumeration is capped *)
  oracle_seed : int;  (** seed for the sampling fallback *)
  models : Memmodel.Consistency.t list;
      (** memory models the oracle checks quantify over *)
}

val default_config : config
(** cap 240, 24 samples, all three consistency models. *)

type mismatch = {
  lifeguard : Recovery.Snapshot.lifeguard;
  subject : string;  (** which combination diverged / which theorem broke *)
  details : string list;  (** fingerprints or missed-finding descriptions *)
}

val pp_mismatch : Format.formatter -> mismatch -> unit

val check :
  ?config:config ->
  ?pools:Butterfly.Domain_pool.t list ->
  Recovery.Snapshot.lifeguard ->
  Grid.t ->
  mismatch list
(** Run the full battery on one grid, as the lifeguard's
    {!Serve.Report.find} entry describes it: its analysis variants, its
    reference and its oracle.  [pools] are caller-owned domain
    pools reused across calls (the fuzz engine shares two across its
    whole corpus); when omitted, only the sequential driver runs and the
    battery degrades to the oracle checks. *)

val check_recovery :
  ?pool:Butterfly.Domain_pool.t ->
  ?every:int ->
  ?crash_at:int ->
  ?seed:int ->
  Recovery.Snapshot.lifeguard ->
  Grid.t ->
  mismatch list
(** Crash-recovery check ({!Recovery.Crash_sim}), once per analysis
    variant of the lifeguard's table entry: run the grid with a
    checkpoint every [every] epochs (default 1), kill the run at
    [crash_at] — or at a [seed]-determined epoch — resume from the
    surviving snapshot, and compare fingerprints with an uninterrupted
    run.  With [pool], both the doomed and the resumed engine run on it.
    The snapshot lives in a temp file, removed afterwards.  A mismatch
    here is a checkpoint/restore bug; its subject names the variant
    ([crash-recovery[relaxed,two-phase]: ...]) when the lifeguard has
    more than one. *)
