(** Dynamic parallel reaching definitions (Section 5.1).

    A definition [d] (a particular dynamic write) {e reaches} epoch [l] if
    some valid ordering of the first [l] epochs ends with [d] live.
    Generation is global (a definition in a wing is visible to the body);
    killing is local, so KILL-SIDE-OUT is conservatively useless and only
    GEN-SIDE-IN/OUT carry wing information.

    [Analysis] holds the equations ({!Dataflow.Make}) over {!Def_set};
    [Engine] runs them on the butterfly window ({!Scheduler.Make}).  The
    pass-2 views it hands out carry what a lifeguard layered on reaching
    definitions would check against. *)

module Problem :
  Dataflow.PROBLEM with type Set.t = Def_set.t

module Analysis : module type of Dataflow.Make (Problem)
module Engine : module type of Scheduler.Make (Problem)

val run : ?on_instr:(Analysis.instr_view -> unit) -> Epochs.t -> Def_set.t array
(** [Engine.run] without a pool: hands every pass-2 view to [on_instr]
    (epoch-major, thread-minor, instruction order) and returns the SOS
    history [SOS_0 .. SOS_(epochs+1)]; the last entry summarizes the
    entire execution. *)

val may_reach_loc : Analysis.instr_view -> Tracing.Addr.t -> bool
(** Does some definition of the location possibly reach the viewed
    instruction (is one in its IN)?  Two membership probes, no IN set
    built. *)
