(** The fuzzing loop: generate → differential battery → shrink.

    One seed determines the whole campaign.  Each iteration draws a grid
    from the lifeguard's instruction profile, runs {!Differential.check}
    on it, and stops at the first counterexample, which is greedily
    minimized ({!Shrinker}) and serializable via {!Grid.encode} into a
    trace file that {!check_program} (and the CLI's [fuzz --replay])
    re-runs.

    Telemetry under the installed {!Obs} sink, labelled
    [lifeguard=<name>]: [qa.grids] (grids generated), [qa.mismatches]
    (mismatching combinations found), [qa.shrink_steps] (accepted
    reductions, unlabelled — emitted by {!Shrinker}), and the
    [qa.check.ns] / [qa.shrink.ns] spans. *)

type crash = {
  crash_at : int option;
      (** kill at this epoch, or [None] for a per-iteration seeded one *)
  every : int;  (** checkpoint interval while the doomed run lives *)
}

type config = {
  iterations : int;
  seed : int;
  shrink : bool;  (** minimize the first failing grid *)
  shape : Grid_gen.shape;
  diff : Differential.config;
  crash : crash option;
      (** also run {!Differential.check_recovery} on every grid, on the
          most concurrent pool *)
}

val default_config : config
(** 100 iterations, seed 1, shrinking on, {!Grid_gen.default_shape},
    {!Differential.default_config}, crash checks off. *)

type counterexample = {
  iteration : int;  (** 0-based iteration that produced it *)
  grid : Grid.t;  (** the original failing grid *)
  mismatches : Differential.mismatch list;  (** its battery failures *)
  shrunk : Grid.t option;  (** minimized grid, when [config.shrink] *)
  shrink_steps : int;
}

type outcome = {
  lifeguard : Recovery.Snapshot.lifeguard;
  grids : int;  (** grids actually generated and checked *)
  counterexample : counterexample option;
}

val run :
  ?pools:Butterfly.Domain_pool.t list ->
  ?config:config ->
  Recovery.Snapshot.lifeguard ->
  outcome
(** Fuzz one lifeguard.  [pools] are reused for every pooled run;
    when omitted, the engine creates a one-domain pool (tasks on the
    caller) and a two-domain pool (one worker plus the caller) for the
    campaign and shuts them down afterwards. *)

val check_program :
  ?pools:Butterfly.Domain_pool.t list ->
  ?diff:Differential.config ->
  Recovery.Snapshot.lifeguard ->
  Tracing.Program.t ->
  Differential.mismatch list
(** Replay a serialized counterexample (or any trace) through the same
    battery [run] applies — heartbeats present in the program delimit the
    epochs.  Creates default pools when none are given, like [run]. *)
