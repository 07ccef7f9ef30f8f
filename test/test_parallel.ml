(* The batch two-pass contract on a dataflow problem: Scheduler.Wavefront
   driving Dataflow.Make's pieces (summarize for pass 1, epoch_summary /
   sos_next for the SOS recurrence, side_in / lsos / iter_block for pass
   2) must reproduce Dataflow.run exactly — the ordered stream of
   second-pass views and the whole SOS history — inline and on 1/2/8
   domain pools, for a May problem (reaching definitions) and a Must
   problem (reaching expressions).  The same drive at unbounded
   lookahead is the epoch-barrier schedule (all of pass 1, then one
   pass-2 fan-out per epoch), so it must agree too. *)

module Epochs = Butterfly.Epochs
module WF = Butterfly.Scheduler.Wavefront
module RD = Butterfly.Reaching_definitions
module RE = Butterfly.Reaching_expressions

module Drive (P : Butterfly.Dataflow.PROBLEM) = struct
  module D = Butterfly.Dataflow.Make (P)

  (* [Dataflow.run] on the Wavefront contract: pass 1 and pass 2 are the
     pool tasks, the master commits summaries, seals SOS_l in [prepare l]
     and replays each block's views in commit order. *)
  let run ?pool ?lookahead ~on_instr epochs =
    let num = Epochs.num_epochs epochs and threads = Epochs.threads epochs in
    let summaries = Array.make_matrix num threads None in
    let row l =
      Array.init threads (fun tid ->
          if l < 0 || l >= num then
            D.summarize (Butterfly.Block.empty ~epoch:l ~tid)
          else Option.get summaries.(l).(tid))
    in
    let sos = Array.make (num + 2) D.Set.empty in
    let seal l =
      if l >= 2 then
        sos.(l) <-
          D.sos_next ~sos_prev:sos.(l - 1)
            ~two_back:
              (D.epoch_summary
                 ~prev:(if l = 2 then None else Some (row (l - 3)))
                 ~cur:(row (l - 2)))
    in
    WF.run ?pool ?lookahead ~num_epochs:num ~threads
      ~pass1:(fun ~epoch ~tid -> D.summarize (Epochs.block epochs ~epoch ~tid))
      ~commit1:(fun ~epoch ~tid s -> summaries.(epoch).(tid) <- Some s)
      ~prepare:seal
      ~pass2:(fun ~epoch ~tid ->
        (* Everything read here was committed or sealed before dispatch. *)
        let wings =
          Epochs.wings epochs ~epoch ~tid
          |> List.map (fun (b : Butterfly.Block.t) -> (row b.epoch).(b.tid))
        in
        let lsos0 =
          D.lsos ~sos:sos.(epoch) ~head:(row (epoch - 1)).(tid)
            ~two_back_row:(row (epoch - 2)) ~tid
        in
        let views = ref [] in
        D.iter_block ~side_in:(D.side_in ~wings) ~lsos0 ~sos:sos.(epoch)
          (fun v -> views := v :: !views)
          (Epochs.block epochs ~epoch ~tid);
        List.rev !views)
      ~commit2:(fun ~epoch:_ ~tid:_ views -> List.iter on_instr views)
      ();
    seal num;
    seal (num + 1);
    sos
end

module Drive_rd = Drive (RD.Problem)
module Drive_re = Drive (RE.Problem)

let key_rd (v : RD.Analysis.instr_view) =
  Format.asprintf "%a|%s|%a|%a|%a|%a" Butterfly.Instr_id.pp v.id
    (Tracing.Instr.to_string v.instr)
    Butterfly.Def_set.pp v.lsos_before Butterfly.Def_set.pp v.in_before
    Butterfly.Def_set.pp v.side_in Butterfly.Def_set.pp v.sos

let key_re (v : RE.Analysis.instr_view) =
  Format.asprintf "%a|%s|%a|%a|%a|%a" Butterfly.Instr_id.pp v.id
    (Tracing.Instr.to_string v.instr)
    Butterfly.Expr_set.pp v.lsos_before Butterfly.Expr_set.pp v.in_before
    Butterfly.Expr_set.pp v.side_in Butterfly.Expr_set.pp v.sos

(* Ragged grids: threads disagreeing on epoch counts, empty blocks. *)
let arb_grid =
  Testutil.arb_grid ~n_addrs:3 ~max_threads:4 ~max_epochs:5 ~max_block:4
    ~uneven:true ()

let rd_equiv ?pool ?lookahead g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] and driven = ref [] in
  let br = RD.run ~on_instr:(fun v -> batch := key_rd v :: !batch) epochs in
  let sos =
    Drive_rd.run ?pool ?lookahead
      ~on_instr:(fun v -> driven := key_rd v :: !driven)
      epochs
  in
  !batch = !driven
  && Array.length sos = Array.length br.sos
  && Array.for_all2 Butterfly.Def_set.equal br.sos sos

let re_equiv ?pool ?lookahead g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] and driven = ref [] in
  let br = RE.run ~on_instr:(fun v -> batch := key_re v :: !batch) epochs in
  let sos =
    Drive_re.run ?pool ?lookahead
      ~on_instr:(fun v -> driven := key_re v :: !driven)
      epochs
  in
  !batch = !driven
  && Array.length sos = Array.length br.sos
  && Array.for_all2 Butterfly.Expr_set.equal br.sos sos

(* A fresh pool per generated grid, shut down after it. *)
let on_pool domains prop g =
  Butterfly.Domain_pool.with_pool ~name:"contract" ~domains (fun pool ->
      prop ~pool g)

(* Lookahead past the last epoch: every pass-1 task is dispatched before
   the first pass-2 task, which is the epoch-barrier schedule. *)
let unbounded = 1_000

let equivalence =
  List.concat_map
    (fun (problem, prop) ->
      Testutil.qtest ~count:150
        (Printf.sprintf "inline == Dataflow.run (%s)" problem)
        arb_grid
        (fun g -> prop ?pool:None ?lookahead:None g)
      :: List.map
           (fun domains ->
             Testutil.qtest ~count:80
               (Printf.sprintf "%d-domain pool == Dataflow.run (%s)" domains
                  problem)
               arb_grid
               (on_pool domains (fun ~pool g ->
                    prop ?pool:(Some pool) ?lookahead:None g)))
           [ 1; 2; 8 ])
    [
      ("May/RD", fun ?pool ?lookahead g -> rd_equiv ?pool ?lookahead g);
      ("Must/RE", fun ?pool ?lookahead g -> re_equiv ?pool ?lookahead g);
    ]

let lookahead =
  List.concat_map
    (fun (problem, prop) ->
      List.map
        (fun (label, k) ->
          Testutil.qtest ~count:80
            (Printf.sprintf "lookahead %s on 2 domains == Dataflow.run (%s)"
               label problem)
            arb_grid
            (on_pool 2 (fun ~pool g -> prop ~pool ~lookahead:k g)))
        [ ("2 (minimum)", 2); ("unbounded (epoch barrier)", unbounded) ])
    [
      ("May/RD", fun ~pool ~lookahead g -> rd_equiv ~pool ~lookahead g);
      ("Must/RE", fun ~pool ~lookahead g -> re_equiv ~pool ~lookahead g);
    ]

let () =
  Alcotest.run "parallel"
    [ ("equivalence", equivalence); ("lookahead", lookahead) ]
