(* The one engine per lifeguard: each lifeguard's [run] is its
   [Engine] (a [Window.S]) fed every row of the grid, with pass 2 fanned
   out per epoch on an optional domain pool.

   Six batteries:

   - the cross-driver equivalence battery: 500+ seeded ragged grids, all
     four lifeguards (TaintCheck in every analysis variant), pools of
     1/2/8 domains — every pooled report fingerprint must be
     byte-identical to the sequential engine's;
   - the same comparison at 1, 3 and 8 threads on a 2-domain pool, where
     the caller's share of each epoch and the worker's are uneven;
   - AddrCheck's isolation (metadata-race) sets against a whole-grid
     reference computation, sequential and pooled;
   - Theorem 6.2 through the pooled engine: the valid-ordering oracle
     must still find zero false negatives;
   - edge cases: degenerate grids, future polling, argument validation;
   - resume from every sealed epoch with pooled engines on both sides,
     and the crash simulator on a pool.

   The per-epoch fan-out itself ([Window.pass2_epoch]) is pinned in
   test_parallel.ml. *)

module AC = Lifeguards.Addrcheck
module TC = Lifeguards.Taintcheck

let check = Alcotest.check
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cross-driver equivalence: the 500+-grid battery.                    *)

(* One run of each lifeguard under each driver; a divergent fingerprint
   names the grid (seeded, so any failure replays exactly). *)
type fp_fn = ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> string

(* Every lifeguard in the table, with every analysis variant it has. *)
let lifeguard_cases : (string * Qa.Grid_gen.profile * fp_fn list) list =
  List.map
    (fun lg ->
      let (Serve.Report.Entry e) = Serve.Report.find lg in
      ( Recovery.Snapshot.lifeguard_to_string lg,
        Qa.Differential.profile_of lg,
        List.map
          (fun (_, (ops : ?pool:_ -> unit -> _)) ?pool epochs ->
            Testutil.run_fp (ops ?pool ()) epochs)
          e.variants ))
    Recovery.Snapshot.all

(* 4 lifeguards x 3 pool widths x 20 grids x (1 or 3 variants) = 720
   grid-runs, each compared against the sequential baseline.  With
   [threads], every grid has exactly that many threads, so on a
   2-domain pool the caller's share of each epoch and the worker's
   differ in size (1 + 2 of 3 threads) or the caller takes the whole
   epoch (1 thread). *)
let equivalence_battery ?threads domains () =
  let shape =
    Option.map
      (fun n -> { Qa.Grid_gen.default_shape with min_threads = n; max_threads = n })
      threads
  in
  let seed, grids =
    match threads with None -> (0x3afe, 20) | Some n -> (0x5a2e + n, 25)
  in
  Butterfly.Domain_pool.with_pool ~name:"engine-test" ~domains (fun pool ->
      List.iter
        (fun (label, profile, fps) ->
          let rng = Random.State.make [| seed; domains |] in
          for g = 1 to grids do
            let grid = Qa.Grid_gen.grid ?shape profile rng in
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
(* AddrCheck's isolation sets against a whole-grid reference.           *)

module IS = Butterfly.Interval_set

(* Section 6.1's emptiness check computed over the whole grid at once,
   independently of the engine's sliding window: block (l, t) violates
   isolation on the bytes where its allocation-state changes meet a
   wing's changes or accesses, or its accesses meet a wing's changes. *)
let reference_violations epochs =
  let num_l = Butterfly.Epochs.num_epochs epochs in
  let threads = Butterfly.Epochs.threads epochs in
  let footprint l t =
    if l < 0 || l >= num_l then (IS.empty, IS.empty)
    else
      Butterfly.Block.fold_left
        (fun (change, access) _id i ->
          match Tracing.Instr.alloc_effect i with
          | `Alloc (base, size) | `Free (base, size) ->
            (IS.union change (IS.range base (base + size)), access)
          | `None ->
            ( change,
              List.fold_left
                (fun acc a -> IS.union acc (IS.singleton a))
                access (Tracing.Instr.accesses i) ))
        (IS.empty, IS.empty)
        (Butterfly.Epochs.block epochs ~epoch:l ~tid:t)
  in
  let blocks = ref [] in
  for l = 0 to num_l - 1 do
    for t = 0 to threads - 1 do
      let change, access = footprint l t in
      let v = ref IS.empty in
      for l' = l - 1 to l + 1 do
        for t' = 0 to threads - 1 do
          if t' <> t then begin
            let wchange, waccess = footprint l' t' in
            v :=
              IS.union_all
                [ !v; IS.inter wchange change; IS.inter wchange access;
                  IS.inter waccess change ]
          end
        done
      done;
      if not (IS.is_empty !v) then blocks := ((l, t), !v) :: !blocks
    done
  done;
  List.rev !blocks

let engine_violations (r : AC.report) =
  List.filter_map
    (fun (e : AC.error) ->
      match (e.kind, e.where) with
      | AC.Metadata_race, `Block (l, t) -> Some ((l, t), e.addrs)
      | _ -> None)
    r.errors

let isolation_battery () =
  let flagged = ref 0 in
  Butterfly.Domain_pool.with_pool ~name:"engine-iso" ~domains:2 (fun pool ->
      List.iter
        (fun profile ->
          let rng = Random.State.make [| 0x150; Hashtbl.hash profile |] in
          for g = 1 to 150 do
            let grid = Qa.Grid_gen.grid profile rng in
            let epochs = Qa.Grid.epochs grid in
            let want = reference_violations epochs in
            flagged := !flagged + List.length want;
            List.iter
              (fun (label, pool) ->
                let got = engine_violations (AC.run ?pool epochs) in
                let same =
                  List.length want = List.length got
                  && List.for_all2
                       (fun (b, v) (b', v') -> b = b' && IS.equal v v')
                       want got
                in
                if not same then
                  Alcotest.failf
                    "%s grid #%d: engine isolation sets differ from the \
                     whole-grid reference (%d vs %d blocks):\n%s"
                    label g (List.length got) (List.length want)
                    (Format.asprintf "%a" Qa.Grid.pp grid))
              [ ("sequential", None); ("pooled", Some pool) ]
          done)
        [ Qa.Grid_gen.Alloc; Qa.Grid_gen.Mixed ]);
  (* The battery is not vacuous: the grids do race on metadata. *)
  if !flagged < 50 then
    Alcotest.failf "only %d metadata-race blocks across the battery" !flagged

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

(* Degenerate grids through both kinds of pooled engine: the streaming
   scheduler (AddrCheck) and the per-epoch fan-out (TaintCheck). *)
let edge_grid name (g : Testutil.grid) =
  Alcotest.test_case name `Quick (fun () ->
      let epochs = Testutil.epochs_of_grid g in
      Butterfly.Domain_pool.with_pool ~name:"engine-edge" ~domains:2 (fun pool ->
          checks (name ^ " (addrcheck)")
            (AC.fingerprint (AC.run epochs))
            (AC.fingerprint (AC.run ~pool epochs));
          checks (name ^ " (taintcheck)")
            (TC.fingerprint (TC.run epochs))
            (TC.fingerprint (TC.run ~pool epochs))))

let poll_semantics =
  Alcotest.test_case "future poll: false while pending, true when done"
    `Quick (fun () ->
      (* A task pending on a worker: a pool of one domain has none (its
         tasks run on the caller inside [async]). *)
      Butterfly.Domain_pool.with_pool ~name:"engine-poll" ~domains:2 (fun pool ->
          if Butterfly.Domain_pool.size pool >= 2 then
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
      let expect_invalid name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s: expected Invalid_argument" name
      in
      (* Every engine of the table, in every analysis variant, created
         for two threads. *)
      let widths name feed =
        expect_invalid (name ^ ": narrow row") (fun () -> feed [| [||] |]);
        expect_invalid (name ^ ": wide row") (fun () ->
            feed [| [||]; [||]; [||] |])
      in
      (* One end-of-stream contract: a row after [finish] is refused, and
         a second [finish] gives the same report. *)
      let after_finish name (ops : (_, _) Recovery.Runner.ops) =
        let st = ops.create ~threads:2 in
        let row = [| [| Tracing.Instr.Assign_const 1 |]; [||] |] in
        ops.feed st row;
        let first = ops.fp (ops.finish st) in
        expect_invalid (name ^ ": feed after finish") (fun () ->
            ops.feed st row);
        checks (name ^ ": finish twice") first (ops.fp (ops.finish st))
      in
      List.iter
        (fun lg ->
          let (Serve.Report.Entry e) = Serve.Report.find lg in
          List.iter
            (fun (setting, (ops : ?pool:_ -> unit -> _)) ->
              let ops : (_, _) Recovery.Runner.ops = ops () in
              let name = Testutil.variant_label lg setting in
              widths name (ops.feed (ops.create ~threads:2));
              after_finish name ops;
              expect_invalid (name ^ ": threads = 0") (fun () ->
                  ignore (ops.create ~threads:0)))
            e.variants)
        Recovery.Snapshot.all;
      expect_invalid "checkpoint every = 0" (fun () ->
          ignore
            (Recovery.Runner.run (Recovery.Runner.addr_ops ())
               ~checkpoint:{ every = 0; path = "unused.snap" }
               ~threads:1
               (fun _ -> ()))))

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
    poll_semantics;
    validation;
  ]

(* ------------------------------------------------------------------ *)
(* Resume from every sealed epoch, pooled engines on both sides.       *)

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
  List.map
    (fun lg ->
      let (Serve.Report.Entry e) = Serve.Report.find lg in
      {
        label = Recovery.Snapshot.lifeguard_to_string lg;
        profile = Qa.Differential.profile_of lg;
        batch_fp = Testutil.run_fp (e.ops ~relaxed:false ());
        resumed_fp =
          (fun ~pool ~cut ~threads rows ->
            Testutil.resumed_via (e.ops ~pool ~relaxed:false ()) ~cut
              ~threads rows);
      })
    Recovery.Snapshot.all

(* Checkpoints cut at sealed-epoch frontiers: the snapshot must resolve
   in-flight pass-1 work, so a resumed pooled run — from EVERY epoch
   boundary — reproduces the sequential report byte for byte. *)
let pooled_resume_battery e () =
  Butterfly.Domain_pool.with_pool ~name:"engine-resume" ~domains:2 (fun pool ->
      let rng = Random.State.make [| 0x3afd; 23 |] in
      for g = 1 to 8 do
        let grid = Qa.Grid_gen.grid e.profile rng in
        let epochs = Qa.Grid.epochs grid in
        let rows = Recovery.Runner.rows_of epochs in
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
      Butterfly.Domain_pool.with_pool ~name:"engine-crash" ~domains:2 (fun pool ->
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
                    (Recovery.Snapshot.lifeguard_to_string lg)
                    g (List.length ms)
              done)
            Recovery.Snapshot.all))

(* ------------------------------------------------------------------ *)
(* The qa driver matrix: sequential vs each supplied pool.             *)

let qa_matrix =
  Alcotest.test_case "differential battery spans every supplied pool"
    `Quick (fun () ->
      (* One grid through the sequential x pool matrix. *)
      let grid =
        Qa.Grid_gen.grid Qa.Grid_gen.Taint (Random.State.make [| 0x3afb |])
      in
      Butterfly.Domain_pool.with_pool ~name:"engine-qa-1" ~domains:1 (fun p1 ->
          Butterfly.Domain_pool.with_pool ~name:"engine-qa-2" ~domains:2 (fun p2 ->
              match
                Qa.Differential.check ~pools:[ p1; p2 ]
                  Recovery.Snapshot.Taintcheck grid
              with
              | [] -> ()
              | ms ->
                Alcotest.failf "differential matrix flagged %d mismatches"
                  (List.length ms))))

let () =
  Alcotest.run "engine"
    [
      ( "equivalence-battery",
        List.map
          (fun domains ->
            Alcotest.test_case
              (Printf.sprintf "720-run battery, pooled(%d) == sequential"
                 domains)
              `Slow (equivalence_battery domains))
          [ 1; 2; 8 ] );
      ( "uneven-shares",
        List.map
          (fun threads ->
            Alcotest.test_case
              (Printf.sprintf "%d-thread grids, pooled(2) == sequential" threads)
              `Quick (equivalence_battery ~threads 2))
          [ 1; 3; 8 ] );
      ( "isolation",
        [
          Alcotest.test_case "metadata-race blocks == whole-grid reference"
            `Quick isolation_battery;
        ] );
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
