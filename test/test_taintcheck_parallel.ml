(* Parallel TaintCheck: the pooled driver is the sequential driver.

   The pooled mode fans each epoch's pass-2 block evaluations out on the
   pool (Window.pass2_epoch), with the master serializing
   LASTCHECK/SOS commits epoch-major / thread-minor.  The
   claim under test is *structural equality of the whole report* — error
   list in order, SOS taint history, per-block statistics — not just the
   same set of flagged sinks.  On top of that, soundness (Theorem 6.2):
   butterfly errors are a superset of `Taintcheck_seq` on valid
   orderings, in particular on program order; and precision (Lemma 6.3):
   the two-phase reduction never drops an error that both the one-phase
   analysis and some valid ordering report.

   Every property goes through Testutil.qtest: CI pins QCHECK_SEED, and
   a failure prints the QCHECK_SEED=... line that replays the run. *)

module TC = Lifeguards.Taintcheck
module TC_seq = Lifeguards.Taintcheck_seq
module VO = Memmodel.Valid_ordering

let taint_gen = Testutil.gen_taint_instr ~n_addrs:3

(* Ragged taint grids: 1..max_threads threads (the 1-thread degenerate
   case included), empty blocks, threads disagreeing on epoch counts. *)
let arb_grid ?(max_threads = 4) ?(max_epochs = 4) ?(max_block = 3) () =
  Testutil.arb_grid ~n_addrs:3 ~min_threads:1 ~max_threads ~max_epochs
    ~max_block ~uneven:true ~instr_gen:taint_gen ()

let reports_equal (a : TC.report) (b : TC.report) =
  a.errors = b.errors && a.sos_tainted = b.sos_tainted
  && a.block_stats = b.block_stats

(* ------------------------------------------------------------------ *)
(* Differential battery: pooled report == sequential butterfly report.  *)

let run_on ?sequential ?two_phase domains epochs =
  Testutil.with_pool_opt (Some domains) (fun pool ->
      TC.run ?sequential ?two_phase ?pool epochs)

let pooled_equal ~sequential ~two_phase domains g =
  let epochs = Testutil.epochs_of_grid g in
  reports_equal
    (TC.run ~sequential ~two_phase epochs)
    (run_on ~sequential ~two_phase domains epochs)

let differential_tests =
  List.map
    (fun domains ->
      Testutil.qtest ~count:130
        (Printf.sprintf "pooled report == sequential report (%d domain%s)"
           domains
           (if domains = 1 then "" else "s"))
        (arb_grid ())
        (pooled_equal ~sequential:true ~two_phase:true domains))
    [ 1; 2; 8 ]
  @ [
      Testutil.qtest ~count:60 "pooled == sequential (relaxed chase, 2 domains)"
        (arb_grid ())
        (pooled_equal ~sequential:false ~two_phase:true 2);
      Testutil.qtest ~count:60 "pooled == sequential (one-phase ablation, 2 domains)"
        (arb_grid ())
        (pooled_equal ~sequential:true ~two_phase:false 2);
      Testutil.qtest ~count:40 "pooled == sequential (8 threads, 2 domains)"
        (arb_grid ~max_threads:8 ~max_epochs:3 ~max_block:2 ())
        (pooled_equal ~sequential:true ~two_phase:true 2);
    ]

(* ------------------------------------------------------------------ *)
(* Soundness vs the sequential lifeguard (Theorem 6.2).                 *)

(* Epoch-major / thread-minor concatenation of the padded grid: a valid
   sequentially consistent ordering, so everything Taintcheck_seq flags
   on it must be flagged by the (pooled) butterfly. *)
let program_order epochs =
  let acc = ref [] in
  Butterfly.Epochs.iter_blocks
    (fun b -> Array.iter (fun i -> acc := i :: !acc) b.Butterfly.Block.instrs)
    epochs;
  List.rev !acc

let superset_of_seq domains g =
  let epochs = Testutil.epochs_of_grid g in
  let butterfly = TC.flagged_sinks (run_on domains epochs) in
  let seq = TC_seq.flagged_sinks (TC_seq.check (program_order epochs)) in
  List.for_all (fun s -> List.mem s butterfly) seq

let soundness_tests =
  [
    Testutil.qtest ~count:120
      "pooled errors ⊇ Taintcheck_seq on program order (2 domains)"
      (arb_grid ()) (superset_of_seq 2);
    Testutil.qtest ~count:60
      "pooled errors ⊇ Taintcheck_seq on program order (8 domains, 8 threads)"
      (arb_grid ~max_threads:8 ~max_epochs:3 ~max_block:2 ())
      (superset_of_seq 8);
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 6.3: the two-phase reduction only rejects impossible chains.   *)

(* If the one-phase (sound, coarser) analysis flags a sink AND some valid
   ordering actually taints it, the two-phase analysis must still flag
   it.  Orderings come from Memmodel.Valid_ordering: exhaustive when the
   grid is small enough, seed-derived samples otherwise. *)
let two_phase_never_drops model g =
  let sequential =
    Memmodel.Consistency.equal model Memmodel.Consistency.Sequential
  in
  let epochs = Testutil.epochs_of_grid g in
  let two =
    TC.flagged_sinks (run_on ~sequential ~two_phase:true 2 epochs)
  in
  let one = TC.flagged_sinks (TC.run ~sequential ~two_phase:false epochs) in
  let vo = Testutil.vo_of_grid ~model g in
  let orderings =
    match VO.enumerate ~cap:1_500 vo with
    | os, true -> os
    | _, false ->
      let rng = Random.State.make [| Testutil.qcheck_seed; 0x63 |] in
      List.init 40 (fun _ -> VO.sample rng vo)
  in
  List.for_all
    (fun o ->
      let seq = TC_seq.check (Memmodel.Ordering.apply (VO.threads vo) o) in
      List.for_all
        (fun s -> (not (List.mem s one)) || List.mem s two)
        (TC_seq.flagged_sinks seq))
    orderings

let lemma63_tests =
  List.map
    (fun model ->
      Testutil.qtest ~count:60
        (Printf.sprintf "two-phase drops no reachable error (%s orderings)"
           (Memmodel.Consistency.to_string model))
        (arb_grid ~max_threads:3 ~max_epochs:3 ~max_block:2 ())
        (two_phase_never_drops model))
    [ Memmodel.Consistency.Sequential; Memmodel.Consistency.Relaxed ]

(* ------------------------------------------------------------------ *)
(* Pool plumbing: an externally owned pool, reused across runs.         *)

let demo_grid : Testutil.grid =
  [|
    [
      [| Tracing.Instr.Taint_source 0 |];
      [| Tracing.Instr.Assign_unop (1, 0) |];
      [| Tracing.Instr.Syscall_arg 1 |];
    ];
    [
      [| Tracing.Instr.Read 0; Tracing.Instr.Jump_via 0 |];
      [| Tracing.Instr.Untaint 0 |];
      [||];
    ];
  |]

let pool_reuse () =
  let epochs = Testutil.epochs_of_grid demo_grid in
  let baseline = TC.run epochs in
  Testutil.checkb "demo grid flags something" true (baseline.errors <> []);
  Butterfly.Domain_pool.with_pool ~name:"taint-shared" ~domains:2 (fun pool ->
      let a = TC.run ~pool epochs in
      let b = TC.run ~pool ~sequential:false epochs in
      let c = TC.run ~pool epochs in
      Testutil.checkb "pooled == sequential" true (reports_equal a baseline);
      Testutil.checkb "second pooled run identical" true (reports_equal a c);
      Testutil.checkb "relaxed pooled == relaxed sequential" true
        (reports_equal b (TC.run ~sequential:false epochs)))

let oversized_domains () =
  (* A pool asked for more domains than the hardware has: creation caps
     it, the report is still the sequential one. *)
  let epochs = Testutil.epochs_of_grid demo_grid in
  Testutil.checkb "capped pool matches" true
    (reports_equal (run_on 64 epochs) (TC.run epochs))

let pool_tests =
  [
    Alcotest.test_case "external pool reused across runs" `Quick pool_reuse;
    Alcotest.test_case "domain count capped at hardware" `Quick
      oversized_domains;
  ]

let () =
  Alcotest.run "taintcheck_parallel"
    [
      ("differential", differential_tests);
      ("soundness", soundness_tests);
      ("lemma-6.3", lemma63_tests);
      ("pool", pool_tests);
    ]
