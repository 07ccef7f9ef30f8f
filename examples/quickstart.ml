(* Quickstart: run a butterfly dataflow analysis over a tiny two-thread
   execution and inspect what the framework computes.

   Thread 0 writes [x] and then reads it two epochs later; thread 1
   overwrites [x] somewhere in between.  Reaching definitions tells us,
   with no inter-thread ordering information at all, which writes may
   still be visible. *)

module I = Tracing.Instr
module RD = Butterfly.Reaching_definitions

let x = 0x10
let y = 0x20

let () =
  (* Per-thread traces; a heartbeat after every 2 instructions splits them
     into uncertainty epochs. *)
  let program =
    Tracing.Program.of_instrs
      [
        [ I.Assign_const x; I.Nop; I.Nop; I.Nop; I.Assign_unop (y, x) ];
        [ I.Nop; I.Nop; I.Assign_const x; I.Nop; I.Nop ];
      ]
    |> Tracing.Program.with_heartbeats ~every:2
  in
  let epochs = Butterfly.Epochs.of_program program in
  Format.printf "execution: %a@.@." Butterfly.Epochs.pp epochs;

  (* Run the analysis, printing the per-instruction IN sets of the second
     pass (local strongly-ordered view plus wing side-in).  Keep the view
     of the first instruction of block (2,0) for a block-level query. *)
  Format.printf "second-pass IN sets (definitions possibly reaching):@.";
  let entry_2_0 = ref None in
  let sos =
    RD.run
      ~on_instr:(fun v ->
        if v.id = Butterfly.Instr_id.make ~epoch:2 ~tid:0 ~index:0 then
          entry_2_0 := Some v;
        if v.instr <> I.Nop then
          Format.printf "  %a %-14s IN = %a@." Butterfly.Instr_id.pp v.id
            (I.to_string v.instr) Butterfly.Def_set.pp
            (RD.Analysis.in_before v))
      epochs
  in

  (* The strongly ordered state after each epoch: definitions that some
     valid ordering leaves live. *)
  Format.printf "@.SOS per epoch:@.";
  Array.iteri
    (fun l sos -> Format.printf "  SOS_%d = %a@." l Butterfly.Def_set.pp sos)
    sos;

  (* Block-level query, at the block's first instruction. *)
  Format.printf "@.does a definition of x reach block (2,0)?  %b@."
    (RD.may_reach_loc (Option.get !entry_2_0) x);
  Format.printf "definitions reaching the end of the run: %a@."
    Butterfly.Def_set.pp sos.(Array.length sos - 1)
