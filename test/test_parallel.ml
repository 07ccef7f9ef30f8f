(* The per-epoch pass-2 fan-out, Scheduler.pass2_epoch: the one place the
   TaintCheck and RaceCheck engines go parallel.  Its contract:

   - every block's pass 2 runs exactly once, and [commit2] sees the
     results on the calling domain in tid order — the inline order —
     whatever order pool workers finish in (1/2/8-domain pools);
   - a raising task re-raises on the master at its own commit point,
     after the commits of the threads before it, and the pool survives
     to run the next epoch;
   - driving Dataflow.Make's pieces one epoch at a time (summarize a row
     as it arrives, seal SOS_l, fan pass 2 of epoch l out once row l+1
     is in) reproduces Dataflow.run exactly — the ordered stream of
     second-pass views and the whole SOS history — inline and on 1/2/8
     domain pools, for a May problem (reaching definitions) and a Must
     problem (reaching expressions). *)

module Pool = Butterfly.Domain_pool
module Sched = Butterfly.Scheduler

let check = Alcotest.check

(* Some busy work whose length varies by block, so pool workers finish
   out of order. *)
let spin ~epoch ~tid =
  let n = ((epoch * 7919) + (tid * 104729)) mod 3000 in
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  (epoch, tid, !acc)

(* Every epoch of an (epochs x threads) grid through [pass2_epoch]; the
   commit log must be the inline schedule's, result for result. *)
let ordered_prop ?pool (epochs, threads) =
  let epochs = 1 + (epochs mod 6) and threads = 1 + (threads mod 9) in
  let drive ?pool () =
    let log = ref [] in
    let master = Domain.self () in
    for l = 0 to epochs - 1 do
      Sched.pass2_epoch ?pool ~threads ~pass2:spin
        ~commit2:(fun ~epoch ~tid r ->
          if Domain.self () <> master then
            Alcotest.fail "commit ran off the master domain";
          log := (epoch, tid, r) :: !log)
        l
    done;
    List.rev !log
  in
  let inline = drive () in
  List.length inline = epochs * threads
  && List.for_all (fun (l, t, (l', t', _)) -> l = l' && t = t') inline
  && inline = drive ?pool ()

let arb_shape =
  QCheck.make
    ~print:(fun (e, t) -> Printf.sprintf "epochs~%d threads~%d" e t)
    QCheck.Gen.(pair (int_bound 64) (int_bound 64))

let ordered =
  Testutil.qtest ~count:100 "inline: commits in tid order" arb_shape
    (ordered_prop ?pool:None)
  :: List.map
       (fun domains ->
         Testutil.qtest ~count:60
           (Printf.sprintf "%d-domain pool: commits in tid order" domains)
           arb_shape
           (fun shape ->
             Pool.with_pool ~name:"pass2" ~domains (fun pool ->
                 ordered_prop ~pool shape)))
       [ 1; 2; 8 ]

module Epochs = Butterfly.Epochs
module RD = Butterfly.Reaching_definitions
module RE = Butterfly.Reaching_expressions

module Drive (P : Butterfly.Dataflow.PROBLEM) = struct
  module D = Butterfly.Dataflow.Make (P)

  (* [Dataflow.run] on the per-epoch discipline of the streaming
     engines: row [l+1] is summarized on arrival, then SOS_l is sealed
     and pass 2 of epoch [l] fans out through [pass2_epoch]; the master
     replays each block's views in commit order. *)
  let run ?pool ~on_instr epochs =
    let num = Epochs.num_epochs epochs and threads = Epochs.threads epochs in
    let summaries = Array.make_matrix num threads None in
    let summarize_row l =
      if l < num then
        for tid = 0 to threads - 1 do
          summaries.(l).(tid) <-
            Some (D.summarize (Epochs.block epochs ~epoch:l ~tid))
        done
    in
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
    summarize_row 0;
    for l = 0 to num - 1 do
      summarize_row (l + 1);
      seal l;
      Sched.pass2_epoch ?pool ~threads
        ~pass2:(fun ~epoch ~tid ->
          (* Everything read here was summarized or sealed before the
             fan-out. *)
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
        l
    done;
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

let rd_equiv ?pool g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] and driven = ref [] in
  let br = RD.run ~on_instr:(fun v -> batch := key_rd v :: !batch) epochs in
  let sos =
    Drive_rd.run ?pool ~on_instr:(fun v -> driven := key_rd v :: !driven) epochs
  in
  !batch = !driven
  && Array.length sos = Array.length br.sos
  && Array.for_all2 Butterfly.Def_set.equal br.sos sos

let re_equiv ?pool g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] and driven = ref [] in
  let br = RE.run ~on_instr:(fun v -> batch := key_re v :: !batch) epochs in
  let sos =
    Drive_re.run ?pool ~on_instr:(fun v -> driven := key_re v :: !driven) epochs
  in
  !batch = !driven
  && Array.length sos = Array.length br.sos
  && Array.for_all2 Butterfly.Expr_set.equal br.sos sos

let equivalence =
  List.concat_map
    (fun (problem, prop) ->
      Testutil.qtest ~count:150
        (Printf.sprintf "inline == Dataflow.run (%s)" problem)
        arb_grid
        (fun g -> prop ?pool:None g)
      :: List.map
           (fun domains ->
             Testutil.qtest ~count:80
               (Printf.sprintf "%d-domain pool == Dataflow.run (%s)" domains
                  problem)
               arb_grid
               (fun g ->
                 Pool.with_pool ~name:"pass2-dataflow" ~domains (fun pool ->
                     prop ?pool:(Some pool) g)))
           [ 1; 2; 8 ])
    [
      ("May/RD", fun ?pool g -> rd_equiv ?pool g);
      ("Must/RE", fun ?pool g -> re_equiv ?pool g);
    ]

exception Boom

(* Thread 2 of epoch 1 raises: threads 0 and 1 are committed, the
   exception surfaces once, and nothing after it is committed. *)
let raise_at_commit ?pool () =
  let committed = ref [] in
  let raised = ref 0 in
  (try
     for l = 0 to 2 do
       Sched.pass2_epoch ?pool ~threads:4
         ~pass2:(fun ~epoch ~tid ->
           if epoch = 1 && tid = 2 then raise Boom;
           (epoch, tid))
         ~commit2:(fun ~epoch:_ ~tid:_ r -> committed := r :: !committed)
         l
     done
   with Boom -> incr raised);
  check Alcotest.int "raised exactly once" 1 !raised;
  check
    Alcotest.(list (pair int int))
    "commits up to the raising task"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 0); (1, 1) ]
    (List.rev !committed)

let raising =
  [
    Alcotest.test_case "inline: a raising task re-raises at its commit"
      `Quick (fun () -> raise_at_commit ());
    Alcotest.test_case
      "pooled: a raising task re-raises at its commit; pool survives" `Quick
      (fun () ->
        Pool.with_pool ~name:"pass2-raise" ~domains:2 (fun pool ->
            raise_at_commit ~pool ();
            (* The pool took the exception in stride: it still runs work,
               and the next epoch fans out as usual. *)
            let f = Pool.async pool (fun () -> 41 + 1) in
            check Alcotest.int "pool survives" 42 (Pool.await f);
            let log = ref [] in
            Sched.pass2_epoch ~pool ~threads:3
              ~pass2:(fun ~epoch:_ ~tid -> tid)
              ~commit2:(fun ~epoch:_ ~tid:_ r -> log := r :: !log)
              0;
            check Alcotest.(list int) "next epoch" [ 0; 1; 2 ] (List.rev !log)));
    Alcotest.test_case "a shut-down pool raises Invalid_argument" `Quick
      (fun () ->
        let pool = Pool.create ~name:"pass2-dead" ~domains:1 () in
        Pool.shutdown pool;
        match
          Sched.pass2_epoch ~pool ~threads:1
            ~pass2:(fun ~epoch:_ ~tid:_ -> ())
            ~commit2:(fun ~epoch:_ ~tid:_ () -> ())
            0
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "pass2_epoch on a shut-down pool must raise");
  ]

let () =
  Alcotest.run "parallel"
    [
      ("equivalence", equivalence);
      ("ordered-commit", ordered);
      ("raising", raising);
    ]
