module Problem = struct
  let name = "reaching-expressions"

  module Set = Expr_set

  let flavour = `Must

  let gen _id instr =
    match Expr.of_instr instr with
    | Some e -> Expr_set.singleton e
    | None -> Expr_set.empty

  let kill _id instr =
    match Tracing.Instr.writes instr with
    | Some x -> Expr_set.killing x
    | None -> Expr_set.empty
end

module Analysis = Dataflow.Make (Problem)
module Engine = Scheduler.Make (Problem)

let run ?(on_instr = ignore) epochs = Engine.run on_instr () epochs

(* Must: IN = LSOS − side-in. *)
let available (v : Analysis.instr_view) e =
  Expr_set.mem e v.lsos_before && not (Expr_set.mem e v.side_in)
