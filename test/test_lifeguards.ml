(* Lifeguards: sequential checkers, butterfly AddrCheck/TaintCheck, and the
   zero-false-negative theorems (6.1, 6.2) validated against enumerated
   valid orderings. *)

module I = Tracing.Instr
module IS = Butterfly.Interval_set
module AC = Lifeguards.Addrcheck
module ACS = Lifeguards.Addrcheck_seq
module TC = Lifeguards.Taintcheck
module TCS = Lifeguards.Taintcheck_seq

(* ---------- sequential AddrCheck ---------- *)

let seq_addrcheck_tests =
  [
    Alcotest.test_case "clean run" `Quick (fun () ->
        let r =
          ACS.check
            [
              I.Malloc { base = 0; size = 16 };
              I.Read 4;
              I.Assign_const 8;
              I.Free { base = 0; size = 16 };
            ]
        in
        Alcotest.(check int) "no errors" 0 (List.length r.errors);
        Alcotest.(check int) "accesses" 4 r.checked_accesses);
    Alcotest.test_case "use after free" `Quick (fun () ->
        let r =
          ACS.check
            [
              I.Malloc { base = 0; size = 16 };
              I.Free { base = 0; size = 16 };
              I.Read 4;
            ]
        in
        (match r.errors with
        | [ { kind = ACS.Unallocated_access; index = 2; _ } ] -> ()
        | _ -> Alcotest.fail "expected one unallocated access at index 2"));
    Alcotest.test_case "double free" `Quick (fun () ->
        let r =
          ACS.check
            [
              I.Malloc { base = 0; size = 8 };
              I.Free { base = 0; size = 8 };
              I.Free { base = 0; size = 8 };
            ]
        in
        match r.errors with
        | [ { kind = ACS.Unallocated_free; _ } ] -> ()
        | _ -> Alcotest.fail "expected one unallocated free");
    Alcotest.test_case "double alloc" `Quick (fun () ->
        let r =
          ACS.check
            [ I.Malloc { base = 0; size = 8 }; I.Malloc { base = 4; size = 8 } ]
        in
        match r.errors with
        | [ { kind = ACS.Double_alloc; addrs; _ } ] ->
          Testutil.checkb "overlap" true (IS.equal addrs (IS.range 4 8))
        | _ -> Alcotest.fail "expected one double alloc");
    Alcotest.test_case "partial free flagged" `Quick (fun () ->
        let r =
          ACS.check
            [ I.Malloc { base = 0; size = 8 }; I.Free { base = 0; size = 16 } ]
        in
        match r.errors with
        | [ { kind = ACS.Unallocated_free; addrs; _ } ] ->
          Testutil.checkb "tail flagged" true (IS.equal addrs (IS.range 8 16))
        | _ -> Alcotest.fail "expected one unallocated free");
  ]

(* ---------- sequential TaintCheck ---------- *)

let seq_taintcheck_tests =
  [
    Alcotest.test_case "propagation chain" `Quick (fun () ->
        let r =
          TCS.check
            [
              I.Taint_source 0;
              I.Assign_unop (1, 0);
              I.Assign_binop (2, 1, 3);
              I.Jump_via 2;
            ]
        in
        Alcotest.(check (list int)) "sink flagged" [ 2 ] (TCS.flagged_sinks r));
    Alcotest.test_case "overwrite clears taint" `Quick (fun () ->
        let r =
          TCS.check
            [ I.Taint_source 0; I.Assign_const 0; I.Jump_via 0 ]
        in
        Alcotest.(check int) "no errors" 0 (List.length r.errors));
    Alcotest.test_case "untaint clears" `Quick (fun () ->
        let r =
          TCS.check
            [ I.Taint_source 0; I.Untaint 0; I.Syscall_arg 0 ]
        in
        Alcotest.(check int) "no errors" 0 (List.length r.errors));
    Alcotest.test_case "untainted source clears dst" `Quick (fun () ->
        let r =
          TCS.check
            [
              I.Taint_source 1;
              I.Assign_unop (1, 0);
              (* 1 now inherits untainted 0 *)
              I.Jump_via 1;
            ]
        in
        Alcotest.(check int) "no errors" 0 (List.length r.errors));
  ]

(* ---------- butterfly AddrCheck scenarios ---------- *)

let figure9 () =
  (* Thread 0 allocates [a] in epoch 0; thread 1 accesses it in epoch 1:
     potentially concurrent, must be flagged.  Thread 2 allocates [b] in
     epoch 1 and accesses it itself in epoch 2: isolated, must pass. *)
  let a = 0x100 and b = 0x200 in
  let g : Testutil.grid =
    [|
      [ [| I.Malloc { base = a; size = 8 } |]; [||]; [||] ];
      [ [||]; [| I.Read a |]; [||] ];
      [ [||]; [| I.Malloc { base = b; size = 8 } |]; [| I.Read b |] ];
    |]
  in
  let r = AC.run (Testutil.epochs_of_grid g) in
  Testutil.checkb "access to a flagged" true (IS.mem a (AC.flagged_addresses r));
  Testutil.checkb "b never flagged" false (IS.mem b (AC.flagged_addresses r))

let same_thread_alloc_use_ok () =
  (* Allocation and use within one thread, separated by epochs: clean. *)
  let g : Testutil.grid =
    [|
      [ [| I.Malloc { base = 0; size = 8 } |]; [| I.Read 0 |];
        [| I.Assign_const 4 |]; [| I.Free { base = 0; size = 8 } |] ];
      [ [| I.Nop |]; [| I.Nop |]; [| I.Nop |]; [| I.Nop |] ];
    |]
  in
  let r = AC.run (Testutil.epochs_of_grid g) in
  Alcotest.(check int) "no errors" 0 (List.length r.errors)

let distant_alloc_visible () =
  (* An allocation two epochs back is in the SOS: accesses pass. *)
  let g : Testutil.grid =
    [|
      [ [| I.Malloc { base = 0; size = 8 } |]; [||]; [||]; [||] ];
      [ [||]; [||]; [| I.Read 0 |]; [| I.Assign_const 4 |] ];
    |]
  in
  let r = AC.run (Testutil.epochs_of_grid g) in
  Alcotest.(check int) "no errors" 0 (List.length r.errors)

let injected_faults_flagged () =
  List.iter
    (fun (name, make) ->
      let program, bugs = make ~threads:3 ~scale:300 ~seed:11 in
      let program = Tracing.Program.with_heartbeats ~every:64 program in
      let r = AC.run (Butterfly.Epochs.of_program program) in
      let flagged = AC.flagged_addresses r in
      List.iter
        (fun (b : Workloads.Faults.injected) ->
          Testutil.checkb
            (Format.asprintf "%s: %a flagged" name Workloads.Faults.pp_bug b)
            true (IS.mem b.addr flagged))
        bugs)
    [
      ("uaf", Workloads.Faults.use_after_free);
      ("df", Workloads.Faults.double_free);
      ("ua", Workloads.Faults.unallocated_access);
      ("all", Workloads.Faults.all_kinds);
    ]

(* Random alloc/access grids for the zero-FN property. *)
let gen_ac_instr : I.t QCheck.Gen.t =
  let open QCheck.Gen in
  let region = int_bound 2 in
  frequency
    [
      (2, map (fun r -> I.Malloc { base = 16 * r; size = 8 }) region);
      (2, map (fun r -> I.Free { base = 16 * r; size = 8 }) region);
      (3, map (fun r -> I.Read (16 * r)) region);
      (2, map (fun r -> I.Assign_const ((16 * r) + 4)) region);
      (1, return I.Nop);
    ]

let gen_ac_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 3 in
  let thread = list_size (int_range 1 5) gen_ac_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_ac_program =
  QCheck.make ~print:Tracing.Trace_codec.encode gen_ac_program

let addrcheck_tests =
  [
    Alcotest.test_case "figure 9 isolation" `Quick figure9;
    Alcotest.test_case "same-thread alloc+use is clean" `Quick
      same_thread_alloc_use_ok;
    Alcotest.test_case "allocation reaches SOS" `Quick distant_alloc_visible;
    Alcotest.test_case "injected faults all flagged" `Quick
      injected_faults_flagged;
    Testutil.qtest ~count:120 "zero false negatives (Thm 6.1)" arb_ac_program
      (fun p ->
        let v = Lifeguards.Oracle.addrcheck_zero_false_negatives ~cap:3_000 p in
        v.sound);
    Testutil.qtest ~count:60 "zero false negatives under relaxed model"
      arb_ac_program (fun p ->
        let v =
          Lifeguards.Oracle.addrcheck_zero_false_negatives
            ~model:Memmodel.Consistency.Relaxed ~cap:3_000 p
        in
        v.sound);
  ]

(* ---------- butterfly TaintCheck ---------- *)

let exploit_scenarios () =
  List.iter
    (fun (s : Workloads.Exploit.scenario) ->
      let epochs = Butterfly.Epochs.of_program s.program in
      let r = TC.run ~sequential:true epochs in
      let flagged = TC.flagged_sinks r in
      List.iter
        (fun sink ->
          Testutil.checkb
            (Printf.sprintf "%s: sink %x flagged" s.name sink)
            true (List.mem sink flagged))
        s.true_positives)
    (Workloads.Exploit.all ())

let sanitized_is_precise () =
  (* The sanitized scenario unlearns the taint epochs before the sink: a
     precise butterfly TaintCheck must not flag it. *)
  let s = Workloads.Exploit.sanitized () in
  let r = TC.run ~sequential:true (Butterfly.Epochs.of_program s.program) in
  Alcotest.(check (list int)) "no flagged sinks" [] (TC.flagged_sinks r)

let gen_tc_instr : I.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = int_bound 3 in
  frequency
    [
      (2, map (fun x -> I.Taint_source x) addr);
      (1, map (fun x -> I.Untaint x) addr);
      (2, map (fun x -> I.Assign_const x) addr);
      (3, map2 (fun x a -> I.Assign_unop (x, a)) addr addr);
      (2, map3 (fun x a b -> I.Assign_binop (x, a, b)) addr addr addr);
      (2, map (fun x -> I.Jump_via x) addr);
      (1, return I.Nop);
    ]

let gen_tc_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 3 in
  let thread = list_size (int_range 1 4) gen_tc_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_tc_program =
  QCheck.make ~print:Tracing.Trace_codec.encode gen_tc_program

(* Small address sets, so the operands overlap often. *)
let arb_lsos_case =
  let open QCheck.Gen in
  let set = list_size (int_bound 6) (int_bound 9) in
  QCheck.make
    ~print:QCheck.Print.(quad (list int) (list int) (list int) (list (list int)))
    (quad set set set (list_size (int_bound 3) set))

let figure10_sos_update () =
  (* Figure 10: [a := b] in epoch 1 becomes tainted only through an
     interleaving with epoch 2's [taint b]; the SOS must nevertheless carry
     [a] into epoch 3, where another thread inherits and jumps through it. *)
  let a = 1 and b = 2 and d = 3 in
  let g : Testutil.grid =
    [|
      [ [||]; [| I.Assign_unop (a, b) |]; [||]; [||] ];
      [ [||]; [||]; [| I.Taint_source b |];
        [| I.Assign_unop (d, a); I.Jump_via d |] ];
    |]
  in
  let r = TC.run ~sequential:true (Testutil.epochs_of_grid g) in
  Testutil.checkb "a committed to SOS_3" true (List.mem a r.sos_tainted.(3));
  Alcotest.(check (list int)) "sink d flagged" [ d ] (TC.flagged_sinks r)

let taintcheck_tests =
  [
    Alcotest.test_case "exploit scenarios flagged" `Quick exploit_scenarios;
    Alcotest.test_case "figure 10: SOS update across the window" `Quick
      figure10_sos_update;
    Alcotest.test_case "sanitized input not flagged" `Quick sanitized_is_precise;
    Testutil.qtest ~count:120 "zero false negatives (Thm 6.2, SC)"
      arb_tc_program (fun p ->
        let v = Lifeguards.Oracle.taintcheck_zero_false_negatives ~cap:3_000 p in
        v.sound);
    Testutil.qtest ~count:60 "zero false negatives (relaxed model)"
      arb_tc_program (fun p ->
        let v =
          Lifeguards.Oracle.taintcheck_zero_false_negatives
            ~model:Memmodel.Consistency.Relaxed ~sequential:false ~cap:3_000 p
        in
        v.sound);
    Testutil.qtest ~count:80 "SC check is at least as precise as relaxed"
      arb_tc_program (fun p ->
        let epochs = Butterfly.Epochs.of_program p in
        let sc = TC.flagged_sinks (TC.run ~sequential:true epochs) in
        let rx = TC.flagged_sinks (TC.run ~sequential:false epochs) in
        List.for_all (fun s -> List.mem s rx) sc);
    Testutil.qtest ~count:500 "LSOS size gauge == cardinality of the built LSOS"
      arb_lsos_case (fun (head_gen, head_kill, sos, others_gen) ->
        let module S = Set.Make (Int) in
        let s = S.of_list in
        (* LSOS = head_gen ∪ (SOS_l − head_kill)
                  ∪ (SOS_l ∩ head_kill ∩ ⋃ others' GEN_(l-2)) *)
        let built =
          S.union (s head_gen)
            (S.union
               (S.diff (s sos) (s head_kill))
               (S.inter
                  (S.inter (s sos) (s head_kill))
                  (List.fold_left (fun a g -> S.union a (s g)) S.empty others_gen)))
        in
        TC.lsos_cardinal ~head_gen ~head_kill ~sos ~others_gen = S.cardinal built);
  ]

(* ---------- TaintCheck's master step ---------- *)

(* The union step the element-wise SOS update replaced, as a reference:
   seal each LASTCHECK block's GEN (tainted entries) and KILL (untainted
   entries), then SOS_l = GEN_{l-2} ∪ (SOS_{l-1} − KILL_{l-2}), where a
   KILL entry counts only if no other thread's LASTCHECK over
   (l-3, l-2) leaves the location tainted. *)
module Union_step = struct
  module AS = Set.Make (Int)

  type row = (int, bool) Hashtbl.t array

  let table entries =
    let h = Hashtbl.create 16 in
    List.iter (fun (x, v) -> Hashtbl.replace h x v) entries;
    h

  let seal (h : (int, bool) Hashtbl.t) =
    Hashtbl.fold
      (fun x tainted (g, k) ->
        if tainted then (AS.add x g, k) else (g, AS.add x k))
      h (AS.empty, AS.empty)

  let lastcheck_span ~(two_back : row) ~(three_back : row) x t' =
    match Hashtbl.find_opt two_back.(t') x with
    | Some r -> Some r
    | None -> Hashtbl.find_opt three_back.(t') x

  let epoch_gen sealed =
    Array.fold_left (fun acc (g, _) -> AS.union acc g) AS.empty sealed

  let epoch_kill ~two_back ~three_back sealed =
    let threads = Array.length sealed in
    let acc = ref [] in
    Array.iteri
      (fun t (_, kill) ->
        AS.iter
          (fun x ->
            let others_ok =
              List.for_all
                (fun t' ->
                  t' = t
                  ||
                  match lastcheck_span ~two_back ~three_back x t' with
                  | None -> true
                  | Some tainted -> not tainted)
                (List.init threads Fun.id)
            in
            if others_ok then acc := x :: !acc)
          kill)
      sealed;
    AS.of_list !acc

  let step ~prev ~two_back ~three_back ~sealed =
    AS.union (epoch_gen sealed)
      (AS.diff prev (epoch_kill ~two_back ~three_back sealed))
end

(* Per thread, one optional verdict for each of [n_addrs] locations: two
   threads may disagree on a location in the same row. *)
let gen_lc_row ~threads ~n_addrs =
  let entries vs =
    List.concat (List.mapi (fun x -> function Some b -> [ (x, b) ] | None -> []) vs)
  in
  QCheck.Gen.(array_repeat threads (map entries (list_repeat n_addrs (opt bool))))

let arb_sos_case =
  let open QCheck.Gen in
  let n_addrs = 8 in
  QCheck.make
    ~print:
      QCheck.Print.(
        triple (list int)
          (array (list (pair int bool)))
          (array (list (pair int bool))))
    (let* threads = int_range 1 4 in
     triple
       (list_size (int_bound n_addrs) (int_bound (n_addrs - 1)))
       (gen_lc_row ~threads ~n_addrs)
       (gen_lc_row ~threads ~n_addrs))

let sos_step_tests =
  [
    Testutil.qtest ~count:500 "element-wise SOS step == GEN ∪ (SOS − KILL)"
      arb_sos_case (fun (prev, r2, r3) ->
        let prev = Union_step.AS.of_list prev in
        let two_back = Array.map Union_step.table r2
        and three_back = Array.map Union_step.table r3 in
        let reference =
          Union_step.step ~prev ~two_back ~three_back
            ~sealed:(Array.map Union_step.seal two_back)
        in
        Union_step.AS.equal reference
          (TC.sos_step ~prev
             ~two_back:(Array.map TC.lastcheck_of_list r2)
             ~three_back:(Array.map TC.lastcheck_of_list r3)));
    (* A steady-state step: a 4096-location SOS and eight threads of 64
       LASTCHECK verdicts each, every tainted one already in the SOS and
       every untainted one already out of it, so SOS_l = SOS_{l-1}.  The
       element-wise update then allocates a few words per thread; the
       union step copies the paths of every GEN and KILL entry through
       the SOS tree and lists the threads per KILL entry, thousands of
       words. *)
    Alcotest.test_case "steady-state SOS step allocates O(threads) words"
      `Quick (fun () ->
        let threads = 8 and n = 4096 and per = 64 in
        let prev = Union_step.AS.of_list (List.init n (fun k -> 16 * k)) in
        let row salt =
          Array.init threads (fun t ->
              List.init per (fun j ->
                  let k = ((t * per) + j + salt) * 7919 mod n in
                  if j land 1 = 0 then (16 * k, true) else ((16 * k) + 8, false)))
        in
        let r2 = row 0 and r3 = row 1 in
        let two_back = Array.map TC.lastcheck_of_list r2
        and three_back = Array.map TC.lastcheck_of_list r3 in
        let budget = float_of_int (32 * threads) in
        let iters = 200 in
        let per_step f =
          ignore (Sys.opaque_identity (f ()));
          let before = Gc.minor_words () in
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (f ()))
          done;
          (Gc.minor_words () -. before) /. float_of_int iters
        in
        let words =
          per_step (fun () -> TC.sos_step ~prev ~two_back ~three_back)
        in
        Testutil.checkb "the fixture is a steady state" true
          (Union_step.AS.equal prev (TC.sos_step ~prev ~two_back ~three_back));
        Testutil.checkb
          (Printf.sprintf "%.1f words/step, budget %.0f" words budget)
          true (words <= budget);
        let two_back = Array.map Union_step.table r2
        and three_back = Array.map Union_step.table r3 in
        let sealed = Array.map Union_step.seal two_back in
        let union_words =
          per_step (fun () ->
              Union_step.step ~prev ~two_back ~three_back ~sealed)
        in
        Testutil.checkb
          (Printf.sprintf "the union step (%.0f words/step) exceeds the budget"
             union_words)
          true (union_words > budget));
  ]

(* ---------- timesliced baseline ---------- *)

(* ---------- butterfly InitCheck ---------- *)

let gen_ic_instr : I.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = int_bound 3 in
  frequency
    [
      (3, map (fun x -> I.Assign_const x) addr);
      (3, map (fun a -> I.Read a) addr);
      (2, map2 (fun x a -> I.Assign_unop (x, a)) addr addr);
      (1, map (fun r -> I.Malloc { base = r; size = 2 }) addr);
      (1, map (fun r -> I.Free { base = r; size = 2 }) addr);
      (1, return I.Nop);
    ]

let gen_ic_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 3 in
  let thread = list_size (int_range 1 5) gen_ic_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_ic_program =
  QCheck.make ~print:Tracing.Trace_codec.encode gen_ic_program

let initcheck_tests =
  [
    Alcotest.test_case "write-then-read is clean within a thread" `Quick
      (fun () ->
        let g : Testutil.grid =
          [|
            [ [| I.Assign_const 0 |]; [| I.Read 0 |]; [| I.Assign_unop (1, 0) |] ];
            [ [| I.Nop |]; [| I.Nop |]; [| I.Nop |] ];
          |]
        in
        let r = Lifeguards.Initcheck.run (Testutil.epochs_of_grid g) in
        Alcotest.(check int) "no flags" 0 (List.length r.errors));
    Alcotest.test_case "read of never-written location flagged" `Quick
      (fun () ->
        let g : Testutil.grid =
          [| [ [| I.Read 7 |] ]; [ [| I.Nop |] ] |]
        in
        let r = Lifeguards.Initcheck.run (Testutil.epochs_of_grid g) in
        Testutil.checkb "flagged" true
          (IS.mem 7 (Lifeguards.Initcheck.flagged_addresses r)));
    Alcotest.test_case "adjacent-epoch initialization is uncertain" `Quick
      (fun () ->
        (* Thread 0 initializes in epoch 0; thread 1 reads in epoch 1: some
           ordering has the read first, so it must be flagged.  Reading two
           epochs later is safe. *)
        let g : Testutil.grid =
          [|
            [ [| I.Assign_const 5 |]; [||]; [||] ];
            [ [||]; [| I.Read 5 |]; [||] ];
            [ [||]; [||]; [| I.Read 5 |] ];
          |]
        in
        let r = Lifeguards.Initcheck.run (Testutil.epochs_of_grid g) in
        Alcotest.(check int) "exactly the adjacent read" 1
          (List.length r.errors);
        match r.errors with
        | [ e ] -> Alcotest.(check int) "in epoch 1" 1 e.Lifeguards.Initcheck.id.epoch
        | _ -> Alcotest.fail "expected one error");
    Alcotest.test_case "malloc poisons definedness" `Quick (fun () ->
        let r =
          Lifeguards.Initcheck_seq.check
            [
              I.Assign_const 0;
              I.Malloc { base = 0; size = 4 };
              I.Read 0;
            ]
        in
        Testutil.checkb "garbage read flagged" true
          (IS.mem 0 (Lifeguards.Initcheck_seq.flagged_addresses r)));
    Testutil.qtest ~count:120 "zero false negatives (InitCheck)"
      arb_ic_program (fun p ->
        let v = Lifeguards.Oracle.initcheck_zero_false_negatives ~cap:3_000 p in
        v.sound);
    Testutil.qtest ~count:50 "zero false negatives under relaxed model"
      arb_ic_program (fun p ->
        let v =
          Lifeguards.Oracle.initcheck_zero_false_negatives
            ~model:Memmodel.Consistency.Relaxed ~cap:3_000 p
        in
        v.sound);
  ]

(* ---------- ablations ---------- *)

(* Section 6.2's "Reducing False Positives" example: resolving (a <- b)
   where the wings hold (b <- r) in epoch l-1 and taint(r) in epoch l+1.
   A single-phase resolution concludes a is tainted even though that needs
   epoch l+1 to execute before epoch l-1 — impossible.  The two-phase check
   rejects it; no valid ordering taints the sink, so single-phase flags a
   false positive and two-phase does not. *)
let two_phase_scenario =
  let b = 0x10 and r = 0x20 and x = 0x30 in
  let module I = Tracing.Instr in
  Tracing.Program.of_instrs
    [
      (* t0: epoch 1 computes x := b and jumps through it *)
      [ I.Nop; I.Nop; I.Assign_unop (x, b); I.Jump_via x ];
      (* t1: epoch 0 computes b := r *)
      [ I.Assign_unop (b, r); I.Nop ];
      (* t2: epoch 2 taints r *)
      [ I.Nop; I.Nop; I.Nop; I.Nop; I.Taint_source r ];
    ]
  |> Tracing.Program.with_heartbeats ~every:2

let ablation_tests =
  [
    Alcotest.test_case "two-phase check kills the impossible path" `Quick
      (fun () ->
        let epochs = Butterfly.Epochs.of_program two_phase_scenario in
        let with_phases = TC.run ~sequential:true ~two_phase:true epochs in
        let without = TC.run ~sequential:true ~two_phase:false epochs in
        Alcotest.(check (list int)) "two-phase: clean" []
          (TC.flagged_sinks with_phases);
        Alcotest.(check (list int)) "single-phase: false positive" [ 0x30 ]
          (TC.flagged_sinks without);
        (* And indeed no valid ordering taints the sink. *)
        let v =
          Lifeguards.Oracle.taintcheck_zero_false_negatives ~cap:20_000
            two_phase_scenario
        in
        Testutil.checkb "exhaustive" true v.exhaustive;
        Testutil.checkb "still sound" true v.sound);
    Testutil.qtest ~count:60 "single-phase ablation is still sound"
      arb_tc_program (fun p ->
        let v =
          Lifeguards.Oracle.taintcheck_zero_false_negatives ~two_phase:false
            ~cap:3_000 p
        in
        v.sound);
    Alcotest.test_case "disabling isolation misses a concurrent free" `Quick
      (fun () ->
        (* The allocation is old (in the SOS); the free and a foreign read
           land in the same epoch.  The ordering "free, then read" is a
           real use-after-free, and only the isolation check can see it:
           from the reader's LSOS the address still looks allocated. *)
        let a = 0x100 in
        let g : Testutil.grid =
          [|
            [ [| I.Malloc { base = a; size = 8 } |]; [||]; [||];
              [| I.Free { base = a; size = 8 } |]; [||] ];
            [ [||]; [||]; [||]; [| I.Read a |]; [||] ];
          |]
        in
        let epochs = Testutil.epochs_of_grid g in
        let with_iso = AC.run ~isolation:true epochs in
        let without = AC.run ~isolation:false epochs in
        (* The read is concurrent with the free (same epoch, other
           thread).  The sequential order "read then free" is clean, the
           order "free then read" is an error: butterfly must flag it. *)
        Testutil.checkb "isolation flags the race" true
          (IS.mem a (AC.flagged_addresses with_iso));
        (* Without isolation the read looks allocated in the LSOS (the
           free is not yet visible): the error is silently missed. *)
        Testutil.checkb "without isolation it is missed" false
          (IS.mem a
             (List.fold_left
                (fun acc (e : AC.error) ->
                  match e.kind with
                  | AC.Unallocated_access -> IS.union acc e.addrs
                  | _ -> acc)
                IS.empty without.errors)));
  ]

(* ---------- staggered heartbeats (Figure 6) ---------- *)

let staggered_tests =
  [
    Testutil.qtest ~count:60 "zero false negatives with staggered epochs"
      arb_ac_program (fun p ->
        (* Re-heartbeat with per-thread skew: boundaries are no longer
           aligned, which is the model's normal operating condition. *)
        let p =
          Tracing.Program.with_heartbeats ~every:6
            (Tracing.Program.of_instrs
               (List.init (Tracing.Program.threads p) (fun t ->
                    Tracing.Trace.instrs (Tracing.Program.trace p t))))
          |> fun base ->
          Machine.Heartbeat.insert_staggered ~every:6 ~max_skew:2 ~seed:3
            base
        in
        let v = Lifeguards.Oracle.addrcheck_zero_false_negatives ~cap:3_000 p in
        v.sound);
  ]

let timesliced_tests =
  [
    Alcotest.test_case "serialization preserves all instructions" `Quick
      (fun () ->
        let p =
          Tracing.Program.of_instrs
            [ List.init 5 (fun _ -> I.Nop); List.init 3 (fun _ -> I.Read 0) ]
        in
        Alcotest.(check int) "count" 8
          (List.length (Lifeguards.Timesliced.serialize ~quantum:2 p)));
    Alcotest.test_case "timesliced addrcheck catches seq bugs" `Quick
      (fun () ->
        let program, bugs = Workloads.Faults.use_after_free ~threads:2 ~scale:100 ~seed:3 in
        let r = Lifeguards.Timesliced.addrcheck ~quantum:10 program in
        let flagged = ACS.flagged_addresses r in
        List.iter
          (fun (b : Workloads.Faults.injected) ->
            Testutil.checkb "bug flagged" true (IS.mem b.addr flagged))
          bugs);
  ]

let () =
  Alcotest.run "lifeguards"
    [
      ("addrcheck_seq", seq_addrcheck_tests);
      ("taintcheck_seq", seq_taintcheck_tests);
      ("addrcheck_butterfly", addrcheck_tests);
      ("taintcheck_butterfly", taintcheck_tests);
      ("taintcheck_sos_step", sos_step_tests);
      ("timesliced", timesliced_tests);
      ("initcheck", initcheck_tests);
      ("ablations", ablation_tests);
      ("staggered", staggered_tests);
    ]
