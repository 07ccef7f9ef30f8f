(** The {!Dataflow.PROBLEM} kernel of the butterfly window: the one
    schedule in the library that runs pass 1, the master step and pass 2
    of a dataflow problem.

    The kernel runs the analysis on {!Window.Make}, one epoch row at a
    time.  Pass 1 is {!Dataflow.Make.summarize}.  The master step of
    epoch [l] seals SOS{_l} and the summary rows [l-2 .. l+1] (rows
    outside the execution read as empty summaries), and commits
    SOS{_l+1}, whose epoch summary reads rows [l-2] and [l-1] — hence
    [rows_behind = 2] and a high-water mark of four resident rows.  Pass
    2 of a block computes its meet, its LSOS and the body's views.  On a
    pool each task buffers its views, which the master hands to the view
    sink [env] in tid order at the task's commit; inline (no pool) each
    task hands its views over as it makes them.  Either way the sink
    observes the same epoch-major / thread-minor / instruction-order
    sequence, identical to a whole-grid evaluation of the same equations
    (property-tested over thousands of random grids against the test
    reference [Testutil.Whole_grid]; see [test/test_scheduler.ml]).

    The kernel's checkpoint body is the SOS history; its report is the
    whole history [SOS_0 .. SOS_(epochs+1)], the last entry summarizing
    the entire execution.  AddrCheck and InitCheck build their kernels
    on this one; {!Reaching_definitions} and {!Reaching_expressions} run
    on {!Make}. *)

module Kernel (P : Dataflow.PROBLEM) : sig
  module D : module type of Dataflow.Make (P)

  include
    Window.KERNEL
      with type env = D.instr_view -> unit
       and type params = unit
       and type summary = D.block_summary
       and type outcome = D.instr_view list
       and type report = D.Set.t array
end

(** The window over the plain kernel: views go to the sink given at
    [create] and [decode]. *)
module Make (P : Dataflow.PROBLEM) : module type of Window.Make (Kernel (P))
