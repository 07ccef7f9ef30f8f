(* Wavefront scheduler: the one batch two-pass schedule, dependency-driven
   dispatch with ordered commits, proven equivalent to the sequential
   drivers.

   Five batteries:

   - the cross-driver equivalence battery: 500+ seeded ragged grids, all
     four lifeguards (TaintCheck in every analysis variant), pools of
     1/2/8 domains — every pooled report fingerprint must be
     byte-identical to the sequential driver's;
   - the readiness rule, pinned by replaying Wavefront.run's dispatch
     log against the butterfly geometry ([Epochs.wings]/head/tail —
     the Lemma 5.2 dependence set) plus the ordered-commit laws, and
     the unbounded-lookahead log against the epoch-barrier shape;
   - Theorem 6.2 through the pooled driver: the valid-ordering oracle
     must still find zero false negatives;
   - edge cases: degenerate grids, a pass-2 task that raises (surfaces
     once, pool survives), submit-after-teardown, argument validation;
   - resume from every sealed epoch with pooled engines on both sides,
     and the crash simulator on a pool.

   Wavefront.run driving a dataflow problem's pieces is checked against
   Dataflow.run in test_parallel.ml. *)

module AC = Lifeguards.Addrcheck
module IC = Lifeguards.Initcheck
module TC = Lifeguards.Taintcheck
module RC = Lifeguards.Racecheck
module WF = Butterfly.Scheduler.Wavefront

let check = Alcotest.check
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cross-driver equivalence: the 500+-grid battery.                    *)

(* One run of each lifeguard under each driver; a divergent fingerprint
   names the grid (seeded, so any failure replays exactly). *)
type fp_fn = ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> string

let lifeguard_cases : (string * Qa.Grid_gen.profile * fp_fn list) list =
  [
    ( "addrcheck",
      Qa.Grid_gen.Alloc,
      [ (fun ?pool epochs -> AC.fingerprint (AC.run ?pool epochs)) ] );
    ( "initcheck",
      Qa.Grid_gen.Init,
      [ (fun ?pool epochs -> IC.fingerprint (IC.run ?pool epochs)) ] );
    ( "taintcheck",
      Qa.Grid_gen.Taint,
      List.map
        (fun (sequential, two_phase) ?pool epochs ->
          TC.fingerprint (TC.run ~sequential ~two_phase ?pool epochs))
        [ (true, true); (false, true); (true, false) ] );
    ( "racecheck",
      Qa.Grid_gen.Racy,
      [ (fun ?pool epochs -> RC.fingerprint (RC.run ?pool epochs)) ] );
  ]

(* 4 lifeguards x 3 pool widths x 20 grids x (1 or 3 variants) = 720
   grid-runs, each compared against the sequential baseline. *)
let equivalence_battery domains () =
  Butterfly.Domain_pool.with_pool ~name:"wf-test" ~domains (fun pool ->
      List.iter
        (fun (label, profile, fps) ->
          let rng = Random.State.make [| 0x3afe; domains |] in
          for g = 1 to 20 do
            let grid = Qa.Grid_gen.grid profile rng in
            let epochs = Qa.Grid.epochs grid in
            List.iteri
              (fun v (fp : fp_fn) ->
                let expected = fp epochs in
                let got = fp ~pool epochs in
                if not (String.equal expected got) then
                  Alcotest.failf
                    "%s[v%d] pooled(%d) diverged on grid #%d:\n%s\n%s\nvs\n%s"
                    label v domains g
                    (Format.asprintf "%a" Qa.Grid.pp grid)
                    expected got)
              fps
          done)
        lifeguard_cases)

(* ------------------------------------------------------------------ *)
(* Readiness rule: the dispatch log vs the butterfly geometry.         *)

(* Collect Wavefront.run's probe log over an (num_epochs x threads)
   grid; passes are no-ops, so the log is pure scheduling. *)
let probe_log ?pool ?lookahead ~num_epochs ~threads () =
  let log = ref [] in
  WF.run ?pool ?lookahead
    ~probe:(fun e -> log := e :: !log)
    ~num_epochs ~threads
    ~pass1:(fun ~epoch:_ ~tid:_ -> ())
    ~commit1:(fun ~epoch:_ ~tid:_ () -> ())
    ~prepare:(fun _ -> ())
    ~pass2:(fun ~epoch:_ ~tid:_ -> ())
    ~commit2:(fun ~epoch:_ ~tid:_ () -> ())
    ();
  List.rev !log

let position log ev =
  let rec go i = function
    | [] -> None
    | e :: rest -> if e = ev then Some i else go (i + 1) rest
  in
  go 0 log

let pos_exn log ev =
  match position log ev with
  | Some i -> i
  | None -> Alcotest.fail "probe event missing from dispatch log"

(* The Lemma 5.2 dependence set of block (l, t): its own pass-1 facts,
   the head (l-1, t), the tail (l+1, t), and the wings (l', t') with
   l-1 <= l' <= l+1, t' <> t.  Derived here directly from the epoch
   grid's geometry so the scheduler's readiness rule is checked against
   [Epochs.wings]/[head]/[tail], not against its own bookkeeping. *)
let dependence_coords epochs ~epoch ~tid =
  let num = Butterfly.Epochs.num_epochs epochs in
  let threads = Butterfly.Epochs.threads epochs in
  let wing_ids =
    Butterfly.Epochs.wings epochs ~epoch ~tid
    |> List.map (fun b -> (b.Butterfly.Block.epoch, b.Butterfly.Block.tid))
  in
  let own = [ (epoch, tid) ] in
  let head = if epoch > 0 then [ (epoch - 1, tid) ] else [] in
  let tail = if epoch + 1 < num then [ (epoch + 1, tid) ] else [] in
  List.filter
    (fun (l, t) -> l >= 0 && l < num && t >= 0 && t < threads)
    (own @ head @ tail @ wing_ids)

let readiness_prop ?pool (num_epochs, threads) =
  let num_epochs = 1 + (num_epochs mod 5) and threads = 1 + (threads mod 4) in
  let log = probe_log ?pool ~num_epochs ~threads () in
  (* Geometry oracle: an all-empty grid of the same shape. *)
  let epochs =
    Butterfly.Epochs.of_blocks
      (Array.make threads (List.init num_epochs (fun _ -> [||])))
  in
  let ok = ref true in
  for l = 0 to num_epochs - 1 do
    for t = 0 to threads - 1 do
      let d2 = pos_exn log (WF.Dispatched { phase = Pass2; epoch = l; tid = t }) in
      (* Every pass-1 fact the butterfly of (l, t) reads is committed
         before its pass-2 dispatch. *)
      List.iter
        (fun (l', t') ->
          let c1 =
            pos_exn log (WF.Committed { phase = Pass1; epoch = l'; tid = t' })
          in
          if c1 >= d2 then ok := false)
        (dependence_coords epochs ~epoch:l ~tid:t);
      (* The SOS recurrence is serial: prepare of epoch l runs after all
         pass-2 commits of l-1, so dispatch of (l, t) must follow them. *)
      if l > 0 then
        for t' = 0 to threads - 1 do
          let c2 =
            pos_exn log (WF.Committed { phase = Pass2; epoch = l - 1; tid = t' })
          in
          if c2 >= d2 then ok := false
        done
    done
  done;
  (* Commits are epoch-major / thread-minor within each pass. *)
  let commit_order phase =
    List.filter_map
      (function
        | WF.Committed { phase = p; epoch; tid } when p = phase ->
          Some (epoch, tid)
        | _ -> None)
      log
  in
  let sorted l = List.sort compare l = l in
  !ok
  && sorted (commit_order WF.Pass1)
  && sorted (commit_order WF.Pass2)
  && List.length log = 4 * num_epochs * threads

let arb_shape =
  QCheck.make
    ~print:(fun (e, t) -> Printf.sprintf "num_epochs~%d threads~%d" e t)
    QCheck.Gen.(pair (int_bound 64) (int_bound 64))

(* The dispatch log is a pure function of (num_epochs, threads,
   lookahead) — never of worker timing — so with the lookahead pinned
   the inline and pooled logs must coincide event for event. *)
let probe_pool_invariance =
  Alcotest.test_case
    "dispatch log is identical with and without a pool (equal lookahead)"
    `Quick (fun () ->
      Butterfly.Domain_pool.with_pool ~name:"wf-probe" ~domains:2 (fun pool ->
          List.iter
            (fun (num_epochs, threads) ->
              List.iter
                (fun lookahead ->
                  let inline = probe_log ~lookahead ~num_epochs ~threads () in
                  let pooled =
                    probe_log ~pool ~lookahead ~num_epochs ~threads ()
                  in
                  check Alcotest.bool
                    (Printf.sprintf "%dx%d lookahead=%d" num_epochs threads
                       lookahead)
                    true (inline = pooled))
                [ 2; 3; 6 ])
            [ (1, 1); (3, 2); (5, 4); (7, 1) ]))

(* At a lookahead past the last epoch the schedule is the epoch
   barrier's: every pass-1 task is dispatched before the first pass-2
   task, and each epoch's pass-2 tasks are all dispatched before any of
   them commits. *)
let barrier_shape_prop (num_epochs, threads) =
  let num_epochs = 1 + (num_epochs mod 5) and threads = 1 + (threads mod 4) in
  let log = probe_log ~lookahead:(num_epochs + 2) ~num_epochs ~threads () in
  let last_pass1 =
    pos_exn log
      (WF.Dispatched { phase = Pass1; epoch = num_epochs - 1; tid = threads - 1 })
  in
  let first_pass2 =
    pos_exn log (WF.Dispatched { phase = Pass2; epoch = 0; tid = 0 })
  in
  last_pass1 < first_pass2
  && List.for_all
       (fun l ->
         pos_exn log
           (WF.Dispatched { phase = Pass2; epoch = l; tid = threads - 1 })
         < pos_exn log (WF.Committed { phase = Pass2; epoch = l; tid = 0 }))
       (List.init num_epochs Fun.id)

let readiness_tests =
  [
    Testutil.qtest ~count:150 "readiness rule == Lemma 5.2 wings (inline)"
      arb_shape (readiness_prop ?pool:None);
    Testutil.qtest ~count:80 "readiness rule == Lemma 5.2 wings (pooled)"
      arb_shape
      (fun shape ->
        Butterfly.Domain_pool.with_pool ~name:"wf-ready" ~domains:2
          (fun pool -> readiness_prop ~pool shape));
    probe_pool_invariance;
    Testutil.qtest ~count:100
      "unbounded lookahead is the epoch-barrier schedule" arb_shape
      barrier_shape_prop;
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 6.2 through the pooled driver.                              *)

let arb_taint_grid =
  Testutil.arb_grid ~n_addrs:3 ~max_threads:3 ~max_epochs:3 ~max_block:2
    ~instr_gen:(Testutil.gen_taint_instr ~n_addrs:3) ()

let theorem_tests =
  [
    Testutil.qtest ~count:60
      "Theorem 6.2: pooled TaintCheck has zero false negatives"
      arb_taint_grid
      (fun g ->
        let program = Qa.Grid.to_program g in
        Testutil.with_pool_opt (Some 2) @@ fun pool ->
        let v =
          Lifeguards.Oracle.taintcheck_zero_false_negatives ~cap:120
            ~samples:12 ~seed:5 ?pool program
        in
        v.Lifeguards.Oracle.sound);
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases.                                                         *)

(* Degenerate grids through both pooled paths: the streaming scheduler
   (AddrCheck) and Wavefront.run (TaintCheck). *)
let edge_grid name (g : Testutil.grid) =
  Alcotest.test_case name `Quick (fun () ->
      let epochs = Testutil.epochs_of_grid g in
      Butterfly.Domain_pool.with_pool ~name:"wf-edge" ~domains:2 (fun pool ->
          checks (name ^ " (addrcheck)")
            (AC.fingerprint (AC.run epochs))
            (AC.fingerprint (AC.run ~pool epochs));
          checks (name ^ " (taintcheck)")
            (TC.fingerprint (TC.run epochs))
            (TC.fingerprint (TC.run ~pool epochs))))

exception Boom

let raising_task =
  Alcotest.test_case "a raising pass-2 task surfaces once; pool survives"
    `Quick (fun () ->
      Butterfly.Domain_pool.with_pool ~name:"wf-raise" ~domains:2 (fun pool ->
          let raised = ref 0 in
          (try
             WF.run ~pool ~num_epochs:4 ~threads:2
               ~pass1:(fun ~epoch:_ ~tid:_ -> ())
               ~commit1:(fun ~epoch:_ ~tid:_ () -> ())
               ~prepare:(fun _ -> ())
               ~pass2:(fun ~epoch ~tid ->
                 if epoch = 1 && tid = 1 then raise Boom)
               ~commit2:(fun ~epoch:_ ~tid:_ () -> ())
               ()
           with Boom -> incr raised);
          check Alcotest.int "raised exactly once" 1 !raised;
          (* The pool took the exception in stride: it still runs work. *)
          let f = Butterfly.Domain_pool.async pool (fun () -> 41 + 1) in
          check Alcotest.int "pool survives" 42
            (Butterfly.Domain_pool.await f)))

let submit_after_teardown =
  Alcotest.test_case "submit after shutdown raises Invalid_argument" `Quick
    (fun () ->
      let pool = Butterfly.Domain_pool.create ~name:"wf-dead" ~domains:1 () in
      Butterfly.Domain_pool.shutdown pool;
      (match Butterfly.Domain_pool.async pool (fun () -> ()) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "async on a shut-down pool must raise");
      match
        WF.run ~pool ~num_epochs:1 ~threads:1
          ~pass1:(fun ~epoch:_ ~tid:_ -> ())
          ~commit1:(fun ~epoch:_ ~tid:_ () -> ())
          ~prepare:(fun _ -> ())
          ~pass2:(fun ~epoch:_ ~tid:_ -> ())
          ~commit2:(fun ~epoch:_ ~tid:_ () -> ())
          ()
      with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "Wavefront.run on a shut-down pool must raise")

let poll_semantics =
  Alcotest.test_case "future poll: false while pending, true when done"
    `Quick (fun () ->
      Butterfly.Domain_pool.with_pool ~name:"wf-poll" ~domains:1 (fun pool ->
          let gate = Atomic.make false in
          let f =
            Butterfly.Domain_pool.async pool (fun () ->
                while not (Atomic.get gate) do
                  Domain.cpu_relax ()
                done;
                7)
          in
          check Alcotest.bool "pending" false (Butterfly.Domain_pool.poll f);
          Atomic.set gate true;
          check Alcotest.int "await" 7 (Butterfly.Domain_pool.await f);
          check Alcotest.bool "done" true (Butterfly.Domain_pool.poll f)))

let validation =
  Alcotest.test_case "argument validation" `Quick (fun () ->
      let noop ~epoch:_ ~tid:_ = () in
      let commit ~epoch:_ ~tid:_ () = () in
      let run ?lookahead ~num_epochs ~threads () =
        WF.run ?lookahead ~num_epochs ~threads ~pass1:noop ~commit1:commit
          ~prepare:(fun _ -> ())
          ~pass2:noop ~commit2:commit ()
      in
      let expect_invalid name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s: expected Invalid_argument" name
      in
      expect_invalid "threads = 0" (fun () -> run ~num_epochs:1 ~threads:0 ());
      expect_invalid "num_epochs < 0" (fun () ->
          run ~num_epochs:(-1) ~threads:1 ());
      expect_invalid "lookahead < 2" (fun () ->
          run ~lookahead:1 ~num_epochs:1 ~threads:1 ());
      (* num_epochs = 0 is fine: nothing runs. *)
      run ~num_epochs:0 ~threads:3 ())

let edge_tests =
  [
    edge_grid "single-epoch grid"
      [|
        [ [| Tracing.Instr.Malloc { base = 0; size = 4 }; Tracing.Instr.Read 1 |] ];
        [ [| Tracing.Instr.Free { base = 0; size = 4 } |] ];
      |];
    edge_grid "single-thread grid"
      [|
        [
          [| Tracing.Instr.Malloc { base = 0; size = 2 } |];
          [| Tracing.Instr.Read 0 |];
          [| Tracing.Instr.Free { base = 0; size = 2 } |];
          [| Tracing.Instr.Read 0 |];
        ];
      |];
    edge_grid "empty epochs" [| [ [||]; [||]; [||] ]; [ [||]; [||] ] |];
    edge_grid "no blocks at all" [| []; [] |];
    raising_task;
    submit_after_teardown;
    poll_semantics;
    validation;
  ]

(* ------------------------------------------------------------------ *)
(* Resume from every sealed epoch, pooled engines on both sides.       *)

let rows_of_epochs epochs =
  let threads = Butterfly.Epochs.threads epochs in
  Array.init (Butterfly.Epochs.num_epochs epochs) (fun epoch ->
      Array.init threads (fun tid ->
          (Butterfly.Epochs.block epochs ~epoch ~tid).Butterfly.Block.instrs))

let resumed_via (type s) ~(create : threads:int -> unit -> s)
    ~(feed : s -> Tracing.Instr.t array array -> unit) ~(encode : s -> string)
    ~(decode : string -> (s, string) result) ~(finish : s -> 'r)
    ~(fp : 'r -> string) ~cut ~threads rows =
  let st = create ~threads () in
  Array.iteri (fun i row -> if i < cut then feed st row) rows;
  let payload = encode st in
  let st' =
    match decode payload with
    | Ok st' -> st'
    | Error m -> Alcotest.failf "decode after %d rows: %s" cut m
  in
  checks "snapshot stability" payload (encode st');
  Array.iteri (fun i row -> if i >= cut then feed st' row) rows;
  fp (finish st')

type engine = {
  label : string;
  profile : Qa.Grid_gen.profile;
  batch_fp : Butterfly.Epochs.t -> string;
  resumed_fp :
    pool:Butterfly.Domain_pool.t ->
    cut:int ->
    threads:int ->
    Tracing.Instr.t array array array ->
    string;
}

let pooled_engines =
  [
    {
      label = "addrcheck";
      profile = Qa.Grid_gen.Alloc;
      batch_fp = (fun epochs -> AC.fingerprint (AC.run epochs));
      resumed_fp =
        (fun ~pool ~cut ~threads rows ->
          resumed_via
            ~create:(fun ~threads () ->
              AC.Resumable.create ~pool ~threads ())
            ~feed:AC.Resumable.feed_epoch ~encode:AC.Resumable.encode
            ~decode:(AC.Resumable.decode ~pool)
            ~finish:AC.Resumable.finish ~fp:AC.fingerprint ~cut ~threads rows);
    };
    {
      label = "initcheck";
      profile = Qa.Grid_gen.Init;
      batch_fp = (fun epochs -> IC.fingerprint (IC.run epochs));
      resumed_fp =
        (fun ~pool ~cut ~threads rows ->
          resumed_via
            ~create:(fun ~threads () ->
              IC.Resumable.create ~pool ~threads ())
            ~feed:IC.Resumable.feed_epoch ~encode:IC.Resumable.encode
            ~decode:(IC.Resumable.decode ~pool)
            ~finish:IC.Resumable.finish ~fp:IC.fingerprint ~cut ~threads rows);
    };
    {
      label = "taintcheck";
      profile = Qa.Grid_gen.Taint;
      batch_fp = (fun epochs -> TC.fingerprint (TC.run epochs));
      resumed_fp =
        (fun ~pool ~cut ~threads rows ->
          resumed_via
            ~create:(fun ~threads () ->
              TC.Resumable.create ~pool ~threads ())
            ~feed:TC.Resumable.feed_epoch ~encode:TC.Resumable.encode
            ~decode:(TC.Resumable.decode ~pool)
            ~finish:TC.Resumable.finish ~fp:TC.fingerprint ~cut ~threads rows);
    };
    {
      label = "racecheck";
      profile = Qa.Grid_gen.Racy;
      batch_fp = (fun epochs -> RC.fingerprint (RC.run epochs));
      resumed_fp =
        (fun ~pool ~cut ~threads rows ->
          resumed_via
            ~create:(fun ~threads () -> RC.Resumable.create ~pool ~threads ())
            ~feed:RC.Resumable.feed_epoch ~encode:RC.Resumable.encode
            ~decode:(RC.Resumable.decode ~pool)
            ~finish:RC.Resumable.finish ~fp:RC.fingerprint ~cut ~threads rows);
    };
  ]

(* Checkpoints cut at sealed-epoch frontiers: the snapshot must resolve
   in-flight pass-1 work, so a resumed pooled run — from EVERY epoch
   boundary — reproduces the sequential report byte for byte. *)
let pooled_resume_battery e () =
  Butterfly.Domain_pool.with_pool ~name:"wf-resume" ~domains:2 (fun pool ->
      let rng = Random.State.make [| 0x3afd; 23 |] in
      for g = 1 to 8 do
        let grid = Qa.Grid_gen.grid e.profile rng in
        let epochs = Qa.Grid.epochs grid in
        let rows = rows_of_epochs epochs in
        let threads = Butterfly.Epochs.threads epochs in
        let expected = e.batch_fp epochs in
        for cut = 0 to Array.length rows do
          let got = e.resumed_fp ~pool ~cut ~threads rows in
          if not (String.equal expected got) then
            Alcotest.failf
              "%s grid #%d pooled-resumed at epoch %d/%d diverged:\n%s"
              e.label g cut (Array.length rows)
              (Format.asprintf "%a" Qa.Grid.pp grid)
        done
      done)

let crash_sim_pooled =
  Alcotest.test_case "crash sim under the pooled driver" `Quick (fun () ->
      Butterfly.Domain_pool.with_pool ~name:"wf-crash" ~domains:2 (fun pool ->
          List.iter
            (fun lg ->
              let rng = Random.State.make [| 0x3afc; 31 |] in
              for g = 1 to 4 do
                let grid =
                  Qa.Grid_gen.grid (Qa.Differential.profile_of lg) rng
                in
                match
                  Qa.Differential.check_recovery ~pool ~seed:g lg grid
                with
                | [] -> ()
                | ms ->
                  Alcotest.failf "%s grid #%d: %d crash-recovery mismatches"
                    (Qa.Differential.lifeguard_to_string lg)
                    g (List.length ms)
              done)
            Qa.Differential.all_lifeguards))

(* ------------------------------------------------------------------ *)
(* The qa driver matrix: sequential vs each supplied pool.             *)

let qa_matrix =
  Alcotest.test_case "differential battery spans every supplied pool"
    `Quick (fun () ->
      (* One grid through the sequential x pool matrix. *)
      let grid =
        Qa.Grid_gen.grid Qa.Grid_gen.Taint (Random.State.make [| 0x3afb |])
      in
      Butterfly.Domain_pool.with_pool ~name:"wf-qa-1" ~domains:1 (fun p1 ->
          Butterfly.Domain_pool.with_pool ~name:"wf-qa-2" ~domains:2 (fun p2 ->
              match
                Qa.Differential.check ~pools:[ p1; p2 ]
                  Qa.Differential.Taintcheck grid
              with
              | [] -> ()
              | ms ->
                Alcotest.failf "differential matrix flagged %d mismatches"
                  (List.length ms))))

let () =
  Alcotest.run "wavefront"
    [
      ( "equivalence-battery",
        List.map
          (fun domains ->
            Alcotest.test_case
              (Printf.sprintf "720-run battery, pooled(%d) == sequential"
                 domains)
              `Slow (equivalence_battery domains))
          [ 1; 2; 8 ] );
      ("readiness", readiness_tests);
      ("soundness", theorem_tests);
      ("edge-cases", edge_tests);
      ( "resume",
        crash_sim_pooled
        :: List.map
             (fun e ->
               Alcotest.test_case
                 (Printf.sprintf "%s resumed from every sealed epoch" e.label)
                 `Slow (pooled_resume_battery e))
             pooled_engines );
      ("qa-matrix", [ qa_matrix ]);
    ]
