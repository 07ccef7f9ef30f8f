module Problem = struct
  let name = "reaching-definitions"

  module Set = Def_set

  let flavour = `May

  let gen id instr =
    match Definition.of_instr id instr with
    | Some d -> Def_set.singleton d
    | None -> Def_set.empty

  let kill id instr =
    match Tracing.Instr.writes instr with
    | Some x -> Def_set.all_of_loc_except x id
    | None -> Def_set.empty
end

module Analysis = Dataflow.Make (Problem)
module Engine = Scheduler.Make (Problem)

let run ?(on_instr = ignore) epochs = Engine.run on_instr () epochs

(* May: IN = LSOS ∪ side-in. *)
let may_reach_loc (v : Analysis.instr_view) loc =
  Def_set.defines_loc loc v.lsos_before || Def_set.defines_loc loc v.side_in
