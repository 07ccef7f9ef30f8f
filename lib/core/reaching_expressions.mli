(** Dynamic parallel reaching expressions (Section 5.2).

    An expression reaches a point only if {e no} valid ordering kills it on
    the way — GEN and KILL trade roles relative to reaching definitions:
    killing is global (KILL-SIDE-IN/OUT summarize the wings, met by union,
    as in Figure 8), generating is local.  AddrCheck is this analysis with
    allocations as GEN and deallocations as KILL.

    [Analysis] holds the equations ({!Dataflow.Make}) over {!Expr_set};
    [Engine] runs them on the butterfly window ({!Scheduler.Make}). *)

module Problem :
  Dataflow.PROBLEM with type Set.t = Expr_set.t

module Analysis : module type of Dataflow.Make (Problem)
module Engine : module type of Scheduler.Make (Problem)

val run : ?on_instr:(Analysis.instr_view -> unit) -> Epochs.t -> Expr_set.t array
(** [Engine.run] without a pool: hands every pass-2 view to [on_instr]
    and returns the SOS history [SOS_0 .. SOS_(epochs+1)]. *)

val available : Analysis.instr_view -> Expr.t -> bool
(** Is the expression available (no recomputation needed) at the viewed
    instruction under every valid ordering (is it in its IN)?  Two
    membership probes, no IN set built. *)
