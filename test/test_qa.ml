(* The QA subsystem tested on itself.

   Three claims gate every future driver change on this repo:

   1. The differential battery is *quiet on main*: generated grids pass
      all driver × domains × memory-model combinations and the
      valid-ordering oracle (mini versions here; the 200-iteration runs
      live in cram/CI).
   2. The battery is *loud on a real bug*: a deliberately unsound
      TaintCheck meet (test-only hook) is caught within 200 iterations at
      a pinned seed, and the counterexample shrinks to a grid no larger
      than 3 threads x 3 epochs that still reproduces the unsoundness.
   3. The shrinker keeps its invariants: the result still fails, is never
      larger than the input, and round-trips through Trace_codec. *)

module Grid = Qa.Grid
module Gen = Qa.Grid_gen
module Diff = Qa.Differential
module Engine = Qa.Engine

let mutation_seed = 42
(* Pinned: with this seed the broken binop meet is caught well inside the
   200-iteration budget (see the assertion below, which also pins the
   budget). Bump deliberately if the generator's distribution changes. *)

let contains pred (g : Grid.t) =
  Array.exists (fun bs -> List.exists (Array.exists pred) bs) g

let is_sink (i : Tracing.Instr.t) =
  match i with Jump_via _ | Syscall_arg _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Generator and grid plumbing.                                         *)

let gen_roundtrip =
  Alcotest.test_case "generated grids round-trip through Trace_codec" `Quick
    (fun () ->
      let rng = Random.State.make [| Testutil.qcheck_seed; 0x9a |] in
      List.iter
        (fun profile ->
          for _ = 1 to 50 do
            let g = Gen.grid profile rng in
            match Grid.decode (Grid.encode g) with
            | Error m -> Alcotest.failf "codec rejected a generated grid: %s" m
            | Ok g' ->
              if not (Grid.equal g g') then
                Alcotest.failf "round-trip changed the grid:@.%a@.vs@.%a"
                  Grid.pp g Grid.pp g'
          done)
        [ Gen.Alloc; Gen.Init; Gen.Taint; Gen.Mixed ])

let gen_deterministic =
  Alcotest.test_case "same seed, same campaign" `Quick (fun () ->
      let campaign () =
        let rng = Random.State.make [| 11; 0x9a5eed |] in
        List.init 30 (fun _ -> Gen.grid Gen.Taint rng)
      in
      Alcotest.(check bool) "identical grids" true (campaign () = campaign ()))

(* ------------------------------------------------------------------ *)
(* Quiet on main: a mini fuzzing campaign per lifeguard finds nothing.   *)

let clean_campaign lifeguard =
  Alcotest.test_case
    (Printf.sprintf "fuzz %s: no mismatch on main"
       (Recovery.Snapshot.lifeguard_to_string lifeguard))
    `Quick
    (fun () ->
      let config =
        { Engine.default_config with iterations = 30; seed = Testutil.qcheck_seed }
      in
      let outcome = Engine.run ~config lifeguard in
      Alcotest.(check int) "all grids checked" 30 outcome.grids;
      match outcome.counterexample with
      | None -> ()
      | Some cx ->
        Testutil.report_seed_once ();
        Alcotest.failf "unexpected counterexample:@.%a@.%a" Grid.pp cx.grid
          (Format.pp_print_list Diff.pp_mismatch)
          cx.mismatches)

(* ------------------------------------------------------------------ *)
(* Loud on a bug: the mutation smoke test (wrong TaintCheck meet).       *)

let with_broken_meet f =
  Lifeguards.Taintcheck.Testing.break_binop_meet := true;
  Fun.protect
    ~finally:(fun () ->
      Lifeguards.Taintcheck.Testing.break_binop_meet := false)
    f

let mutation_caught =
  Alcotest.test_case
    "broken binop meet is caught and shrunk within 200 iterations" `Quick
    (fun () ->
      with_broken_meet (fun () ->
          let config =
            {
              Engine.default_config with
              iterations = 200;
              seed = mutation_seed;
              shrink = true;
            }
          in
          let outcome = Engine.run ~config Recovery.Snapshot.Taintcheck in
          match outcome.counterexample with
          | None ->
            Alcotest.fail
              "the fuzz engine missed an unsound meet in 200 iterations"
          | Some cx ->
            Alcotest.(check bool) "mismatches recorded" true (cx.mismatches <> []);
            let shrunk =
              match cx.shrunk with
              | Some s -> s
              | None -> Alcotest.fail "shrinking was requested but not done"
            in
            (* The acceptance bound: a replayable repro no larger than a
               3-thread x 3-epoch window. *)
            Alcotest.(check bool)
              (Format.asprintf "repro <= 3 threads x 3 epochs:@.%a" Grid.pp
                 shrunk)
              true
              (Grid.threads shrunk <= 3 && Grid.num_epochs shrunk <= 3);
            Alcotest.(check bool) "shrunk is not larger" true
              (Grid.instr_count shrunk <= Grid.instr_count cx.grid);
            (* The shrunk repro still demonstrates the bug, and does so
               after a serialization round-trip (replay from file). *)
            let p = Grid.to_program shrunk in
            let replayed =
              Engine.check_program Recovery.Snapshot.Taintcheck
                (Tracing.Trace_codec.roundtrip_exn p)
            in
            Alcotest.(check bool) "repro replays from its trace form" true
              (replayed <> [])))

let mutation_metrics =
  Alcotest.test_case "qa.* counters track the campaign" `Quick (fun () ->
      let sink = Obs.Sink.memory () in
      with_broken_meet (fun () ->
          Obs.with_sink sink (fun () ->
              let config =
                {
                  Engine.default_config with
                  iterations = 200;
                  seed = mutation_seed;
                  shrink = true;
                }
              in
              ignore (Engine.run ~config Recovery.Snapshot.Taintcheck)));
      let snap = Obs.Sink.snapshot sink in
      let labels = [ ("lifeguard", "taintcheck") ] in
      let grids = Obs.Snapshot.counter ~labels snap "qa.grids" in
      Alcotest.(check bool) "stopped at the first counterexample" true
        (grids >= 1 && grids <= 200);
      Alcotest.(check bool) "mismatches counted" true
        (Obs.Snapshot.counter ~labels snap "qa.mismatches" >= 1);
      Alcotest.(check bool) "shrink steps counted" true
        (Obs.Snapshot.counter snap "qa.shrink_steps" >= 1))

(* ------------------------------------------------------------------ *)
(* Shrinker invariants, property-tested with a synthetic predicate.      *)

let taint_grid max_block =
  Testutil.arb_grid ~n_addrs:3 ~min_threads:1 ~max_threads:3 ~max_epochs:3
    ~max_block ~uneven:true
    ~instr_gen:(Testutil.gen_taint_instr ~n_addrs:3)
    ()

let shrinker_invariants =
  Testutil.qtest ~count:150 "shrunk grid still fails, is smaller, round-trips"
    (taint_grid 3)
    (fun g ->
      let fails g' = contains is_sink g' in
      QCheck.assume (fails g);
      let shrunk, steps = Qa.Shrinker.shrink ~fails g in
      fails shrunk
      && Grid.instr_count shrunk <= Grid.instr_count g
      && Grid.weight shrunk <= Grid.weight g
      && steps >= 0
      && Grid.threads shrunk >= 1
      &&
      match Grid.decode (Grid.encode shrunk) with
      | Ok g' -> Grid.equal g' shrunk
      | Error _ -> false)

let shrinker_minimizes =
  Testutil.qtest ~count:100 "greedy shrink reaches the 1-instruction witness"
    (taint_grid 3)
    (fun g ->
      let fails g' = contains is_sink g' in
      QCheck.assume (fails g);
      let shrunk, _ = Qa.Shrinker.shrink ~fails g in
      (* For a predicate needing one sink, greedy minimization must reach
         a single-thread, single-epoch, single-instruction grid with the
         operand lowered to 0. *)
      Grid.equal shrunk [| [ [| Tracing.Instr.Jump_via 0 |] ] |]
      || Grid.equal shrunk [| [ [| Tracing.Instr.Syscall_arg 0 |] ] |])

let shrinker_rejects_passing_input =
  Alcotest.test_case "shrink of a non-failing grid is an error" `Quick
    (fun () ->
      match Qa.Shrinker.shrink ~fails:(fun _ -> false) [| [ [| Tracing.Instr.Nop |] ] |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let () =
  Alcotest.run "qa"
    [
      ("grids", [ gen_roundtrip; gen_deterministic ]);
      ("quiet-on-main", List.map clean_campaign Recovery.Snapshot.all);
      ("mutation", [ mutation_caught; mutation_metrics ]);
      ( "shrinker",
        [ shrinker_invariants; shrinker_minimizes; shrinker_rejects_passing_input ] );
    ]
