(* RaceCheck proof battery (DESIGN §16).

   Four layers, mirroring the lifeguard's own trust chain:

   1. Differential battery: 500+ seeded lock-heavy grids, each analyzed
      by the independent brute-force reference [Racecheck_seq.check] and
      by every deployment of the butterfly lifeguard's engine —
      sequential and pooled on 2/8 domains.
      Every report fingerprint must match the reference byte for byte.

   2. QCheck lattice laws for the two abstractions the analysis is built
      on: vector clocks under [join]/[meet]/[leq] and locksets under
      intersection/union — the algebra the soundness argument leans on.

   3. The interleaving oracle: on random lock/fork/join programs, every
      pair that races under some valid ordering (explicit happens-before
      graph + lockset filter) must be flagged — Theorem 6.1/6.2 shape,
      checked generatively, plus a mutation smoke test proving the
      battery has teeth (disabling the same-epoch wing check is caught).

   4. Known-answer workloads: the seeded racy kernels flag exactly their
      racy addresses and their properly-locked twins stay silent. *)

module RC = Lifeguards.Racecheck
module RCS = Lifeguards.Racecheck_seq
module VC = Lifeguards.Vclock
module LS = RC.Lockset
module Oracle = Lifeguards.Oracle
module Gen = Qa.Grid_gen
module Grid = Qa.Grid
module I = Tracing.Instr

let checks = Alcotest.(check string)
let checkb = Testutil.checkb

(* ------------------------------------------------------------------ *)
(* 1. Differential battery: reference vs every driver.                 *)

let battery_shape =
  { Gen.default_shape with max_epochs = 4; max_block = 4; n_addrs = 4 }

let battery_grids = 500

let differential_battery () =
  let pool2 = Butterfly.Domain_pool.create ~name:"rc-pool2" ~domains:2 () in
  let pool8 = Butterfly.Domain_pool.create ~name:"rc-pool8" ~domains:8 () in
  Fun.protect
    ~finally:(fun () ->
      Butterfly.Domain_pool.shutdown pool2;
      Butterfly.Domain_pool.shutdown pool8)
  @@ fun () ->
  for seed = 0 to battery_grids - 1 do
    (* Mostly lock/fork/join-dense grids; every fourth grid is the mixed
       profile, covering sync-free traffic and the alloc/taint opcodes
       RaceCheck must ignore. *)
    let profile = if seed mod 4 = 3 then Gen.Mixed else Gen.Racy in
    let rs = Random.State.make [| 0xace; seed |] in
    let g = Gen.grid ~shape:battery_shape profile rs in
    let epochs = Grid.epochs g in
    let reference = RC.fingerprint (RCS.check epochs) in
    List.iter
      (fun (label, report) ->
        let fp = RC.fingerprint report in
        if not (String.equal reference fp) then
          Alcotest.failf
            "%s diverges from the sequential reference on grid seed=%d:\n\
             %s\nreference: %s\n%s:  %s"
            label seed
            (Format.asprintf "%a" Grid.pp g)
            reference label fp)
      [
        ("sequential", RC.run epochs);
        ("pooled(2)", RC.run ~pool:pool2 epochs);
        ("pooled(8)", RC.run ~pool:pool8 epochs);
      ]
  done

(* Per-block [pairs_checked] against a brute-force count straight from
   the raw rows: block (l, t) owns every cross-thread pair between one of
   its accesses and an access of row l-1 (u <> t) or of row l (u < t) to
   the same address, at least one of them a write.  This pins the pair
   enumeration independently of how the engine finds wing partners. *)
let brute_pairs epochs ~epoch:l ~tid:t =
  let accesses ~epoch ~tid =
    let b = Butterfly.Epochs.block epochs ~epoch ~tid in
    Array.to_list b.Butterfly.Block.instrs
    |> List.concat_map (fun i ->
           (match I.writes i with Some x -> [ (x, true) ] | None -> [])
           @ List.map (fun x -> (x, false)) (I.reads i))
  in
  let partners =
    List.concat
      (List.init (Butterfly.Epochs.threads epochs) (fun u ->
           (if u <> t then accesses ~epoch:(l - 1) ~tid:u else [])
           @ if u < t then accesses ~epoch:l ~tid:u else []))
  in
  List.fold_left
    (fun n (x, w) ->
      List.fold_left
        (fun n (y, w') -> if x = y && (w || w') then n + 1 else n)
        n partners)
    0 (accesses ~epoch:l ~tid:t)

let check_pairs_brute label ?pool epochs =
  let r = RC.run ?pool epochs in
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun l (s : RC.block_stats) ->
          let expected = brute_pairs epochs ~epoch:l ~tid:t in
          if s.pairs_checked <> expected then
            Alcotest.failf "%s: block (%d,%d) checked %d pairs, brute force %d"
              label l t s.pairs_checked expected)
        row)
    r.RC.block_stats

let pairs_brute_force () =
  Testutil.with_pool_opt (Some 2) @@ fun pool ->
  List.iter
    (fun pool ->
      let driver = if pool = None then "sequential" else "pooled(2)" in
      for seed = 0 to 99 do
        let rs = Random.State.make [| 0xb7f; seed |] in
        let g = Gen.grid ~shape:battery_shape Gen.Racy rs in
        check_pairs_brute
          (Printf.sprintf "%s racy grid seed=%d" driver seed)
          ?pool (Grid.epochs g)
      done;
      List.iter
        (fun every ->
          Workloads.Synthetic.generate_racy ~counters:64 ~discipline:0.99
            ~threads:8 ~scale:120 ~seed:3 ()
          |> Workloads.Workload.Bundle.program
          |> Tracing.Program.with_heartbeats ~every
          |> Butterfly.Epochs.of_program
          |> check_pairs_brute
               (Printf.sprintf "%s synthetic racy h=%d" driver every)
               ?pool)
        [ 8; 64 ])
    [ None; pool ]

(* ------------------------------------------------------------------ *)
(* 2. Lattice laws.                                                    *)

let arb_clock =
  let open QCheck.Gen in
  let pos = pair (int_range (-2) 4) (int_range 0 5) in
  let gen =
    let* width = return 3 in
    let+ ps = list_repeat width pos in
    Array.of_list ps
  in
  let print c = Format.asprintf "%a" VC.pp c in
  QCheck.make ~print gen

let arb_clock2 = QCheck.pair arb_clock arb_clock
let arb_clock3 = QCheck.triple arb_clock arb_clock arb_clock

let clock_laws =
  let qt = Testutil.qtest in
  [
    qt "leq reflexive" arb_clock (fun a -> VC.leq a a);
    qt "leq antisymmetric" arb_clock2 (fun (a, b) ->
        (not (VC.leq a b && VC.leq b a)) || VC.equal a b);
    qt "leq transitive" arb_clock3 (fun (a, b, c) ->
        (not (VC.leq a b && VC.leq b c)) || VC.leq a c);
    qt "join is an upper bound" arb_clock2 (fun (a, b) ->
        VC.leq a (VC.join a b) && VC.leq b (VC.join a b));
    qt "join is the LEAST upper bound" arb_clock3 (fun (a, b, c) ->
        (not (VC.leq a c && VC.leq b c)) || VC.leq (VC.join a b) c);
    qt "meet is a lower bound" arb_clock2 (fun (a, b) ->
        VC.leq (VC.meet a b) a && VC.leq (VC.meet a b) b);
    qt "meet is the GREATEST lower bound" arb_clock3 (fun (a, b, c) ->
        (not (VC.leq c a && VC.leq c b)) || VC.leq c (VC.meet a b));
    qt "join monotone" arb_clock3 (fun (a, a', b) ->
        (not (VC.leq a a')) || VC.leq (VC.join a b) (VC.join a' b));
    qt "absorption" arb_clock2 (fun (a, b) ->
        VC.equal (VC.meet a (VC.join a b)) a
        && VC.equal (VC.join a (VC.meet a b)) a);
    qt "commutativity" arb_clock2 (fun (a, b) ->
        VC.equal (VC.join a b) (VC.join b a)
        && VC.equal (VC.meet a b) (VC.meet b a));
    qt "associativity" arb_clock3 (fun (a, b, c) ->
        VC.equal (VC.join a (VC.join b c)) (VC.join (VC.join a b) c)
        && VC.equal (VC.meet a (VC.meet b c)) (VC.meet (VC.meet a b) c));
  ]

let arb_lockset =
  let open QCheck.Gen in
  let gen = map LS.of_list (list_size (int_bound 6) (int_bound 7)) in
  QCheck.make
    ~print:(fun s ->
      "{" ^ String.concat "," (List.map string_of_int (LS.elements s)) ^ "}")
    gen

let lockset_laws =
  let qt = Testutil.qtest in
  let pair = QCheck.pair arb_lockset arb_lockset in
  [
    qt "intersection is a lower bound" pair (fun (a, b) ->
        LS.subset (LS.inter a b) a && LS.subset (LS.inter a b) b);
    qt "intersection is sound (member of both)" pair (fun (a, b) ->
        LS.for_all (fun x -> LS.mem x a && LS.mem x b) (LS.inter a b));
    qt "union monotone" pair (fun (a, b) ->
        LS.subset a (LS.union a b) && LS.subset b (LS.union a b));
    qt "disjointness is symmetric and matches inter" pair (fun (a, b) ->
        LS.is_empty (LS.inter a b) = LS.is_empty (LS.inter b a));
  ]

(* ------------------------------------------------------------------ *)
(* 3. The interleaving oracle.                                         *)

(* Racy instruction mix over a tiny universe: shared writes and reads,
   two mutexes, fork/join with occasionally-invalid targets. *)
let gen_racy_instr : I.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = int_bound 2 in
  let mutex = int_bound 1 in
  let tid = int_bound 2 in
  frequency
    [
      (3, map (fun x -> I.Assign_const x) addr);
      (2, map2 (fun x a -> I.Assign_unop (x, a)) addr addr);
      (3, map (fun a -> I.Read a) addr);
      (3, map (fun m -> I.Lock m) mutex);
      (3, map (fun m -> I.Unlock m) mutex);
      (1, map (fun u -> I.Fork u) tid);
      (1, map (fun u -> I.Join u) tid);
      (1, return I.Nop);
    ]

let gen_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 3 in
  let thread = list_size (int_range 0 5) gen_racy_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_racy = QCheck.make ~print:Tracing.Trace_codec.encode gen_program

let sound name (v : Oracle.verdict) =
  if not v.sound then
    Alcotest.failf "%s: %d orderings (exhaustive=%b), missed:\n  %s" name
      v.orderings_checked v.exhaustive
      (String.concat "\n  " v.missed);
  v.orderings_checked > 0

let cap = 1_500
let samples = 60

let oracle_cases =
  List.map
    (fun (name, domains) ->
      Testutil.qtest ~count:100
        (Printf.sprintf "racecheck zero false negatives (%s)" name)
        arb_racy
        (fun p ->
          Testutil.with_pool_opt domains @@ fun pool ->
          sound name
            (Oracle.racecheck_zero_false_negatives
               ~model:Memmodel.Consistency.Sequential ~cap ~samples ?pool p)))
    [ ("sequential", None); ("2 domains", Some 2); ("8 domains", Some 8) ]

(* The battery has teeth: disabling the same-epoch backward wing makes
   RaceCheck miss a first-epoch write-write race, and both the oracle
   and the reference differential catch it. *)
let mutation_smoke () =
  let g : Testutil.grid =
    [| [ [| I.Assign_const 0 |] ]; [ [| I.Assign_const 0 |] ] |]
  in
  let epochs = Testutil.epochs_of_grid g in
  let p = Grid.to_program g in
  (* Healthy: the same-epoch pair is flagged and the oracle agrees. *)
  let r = RC.run epochs in
  Alcotest.(check int) "healthy run flags the race" 1 (List.length r.RC.races);
  checkb "healthy oracle sound" true
    (Oracle.racecheck_zero_false_negatives ~cap ~samples p).Oracle.sound;
  checks "healthy reference agrees" (RC.fingerprint (RCS.check epochs))
    (RC.fingerprint r);
  (* Mutated: the pair is silently dropped; the oracle must object. *)
  Fun.protect
    ~finally:(fun () -> RC.Testing.break_same_epoch := false)
    (fun () ->
      RC.Testing.break_same_epoch := true;
      let r' = RC.run epochs in
      Alcotest.(check int) "mutant misses the race" 0 (List.length r'.RC.races);
      let v = Oracle.racecheck_zero_false_negatives ~cap ~samples p in
      checkb "mutant oracle unsound" false v.Oracle.sound;
      checkb "mutant diverges from reference" false
        (String.equal
           (RC.fingerprint (RCS.check epochs))
           (RC.fingerprint r')))

(* ------------------------------------------------------------------ *)
(* 4. Known-answer workloads.                                          *)

let sorted_addrs = List.sort_uniq compare

let scenario_case (s : Workloads.Races.scenario) =
  Alcotest.test_case s.name `Quick (fun () ->
      let epochs = Butterfly.Epochs.of_program s.program in
      let r = RC.run epochs in
      let flagged = RC.flagged_addrs r in
      Alcotest.(check (list int))
        (s.name ^ ": flags exactly the racy addresses")
        (sorted_addrs s.racy_addrs) flagged;
      List.iter
        (fun a ->
          checkb
            (Printf.sprintf "%s: guarded address %d stays clean" s.name a)
            false (List.mem a flagged))
        s.guarded_addrs;
      (* The windowed verdicts also satisfy the ordering oracle. *)
      checkb (s.name ^ ": oracle sound") true
        (Oracle.racecheck_zero_false_negatives ~cap ~samples s.program)
          .Oracle.sound;
      (* And the pooled driver reproduces them. *)
      checks
        (s.name ^ ": pooled == sequential")
        (RC.fingerprint r)
        (Testutil.with_pool_opt (Some 2) (fun pool ->
             RC.fingerprint (RC.run ?pool epochs))))

let faults_twins () =
  let racy_program, bugs =
    Workloads.Faults.data_race ~threads:3 ~scale:40 ~seed:7 ()
  in
  let locked_program, no_bugs =
    Workloads.Faults.data_race ~locked:true ~threads:3 ~scale:40 ~seed:7 ()
  in
  Alcotest.(check int) "one injected race" 1 (List.length bugs);
  Alcotest.(check int) "locked twin injects nothing" 0 (List.length no_bugs);
  let flags p =
    RC.flagged_addrs
      (RC.run
         (Butterfly.Epochs.of_program
            (Tracing.Program.with_heartbeats ~every:16 p)))
  in
  let racy_addr = (List.hd bugs).Workloads.Faults.addr in
  checkb "injected race is flagged" true (List.mem racy_addr (flags racy_program));
  Alcotest.(check (list int)) "locked twin is race-free" [] (flags locked_program)

let synthetic_discipline () =
  (* Full lock discipline is race-free by construction; dropping the
     discipline seeds races on the shared counters. *)
  let epochs_of b =
    Butterfly.Epochs.of_program
      (Tracing.Program.with_heartbeats ~every:8 (Workloads.Workload.Bundle.program b))
  in
  let clean =
    Workloads.Synthetic.generate_racy ~discipline:1.0 ~threads:3 ~scale:60
      ~seed:11 ()
  in
  Alcotest.(check (list int))
    "discipline 1.0 is race-free" []
    (RC.flagged_addrs (RC.run (epochs_of clean)));
  let sloppy =
    Workloads.Synthetic.generate_racy ~discipline:0.3 ~threads:3 ~scale:60
      ~seed:11 ()
  in
  checkb "discipline 0.3 races" true
    (RC.flagged_addrs (RC.run (epochs_of sloppy)) <> [])

let () =
  Alcotest.run "racecheck"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf
               "%d grids: reference == sequential/pooled-2/pooled-8/resumable"
               battery_grids)
            `Slow differential_battery;
          Alcotest.test_case
            "per-block pairs_checked == brute force over raw rows" `Slow
            pairs_brute_force;
        ] );
      ("vclock-lattice", clock_laws);
      ("lockset-lattice", lockset_laws);
      ( "oracle",
        oracle_cases
        @ [ Alcotest.test_case "mutation smoke test" `Quick mutation_smoke ] );
      ( "workloads",
        List.map scenario_case (Workloads.Races.all ())
        @ [
            Alcotest.test_case "faults twin pair" `Quick faults_twins;
            Alcotest.test_case "synthetic lock discipline" `Quick
              synthetic_discipline;
          ] );
    ]
