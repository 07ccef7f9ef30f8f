(* Soundness regression suite: the zero-false-negative theorems checked
   against the ground-truth ordering oracle over random small programs.

   For each lifeguard the oracle enumerates (or samples, past [cap]) the
   valid orderings of a random program, runs the sequential checker on
   each, and verifies the butterfly checker flagged a superset.  Run for
   the Sequential model and a relaxed one, and — for the lifeguards that
   grew a pooled driver — on the pooled streaming scheduler too, so the
   theorems are regression-checked against the parallel deployment. *)

module Oracle = Lifeguards.Oracle

(* Programs with allocation traffic, so AddrCheck has state to race on. *)
let gen_mem_instr ~n_addrs : Tracing.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = int_bound (n_addrs - 1) in
  frequency
    [
      (3, map (fun a -> Tracing.Instr.Malloc { base = a; size = 1 }) addr);
      (3, map (fun a -> Tracing.Instr.Free { base = a; size = 1 }) addr);
      (3, map (fun x -> Tracing.Instr.Assign_const x) addr);
      (2, map (fun a -> Tracing.Instr.Read a) addr);
      (1, return Tracing.Instr.Nop);
    ]

let gen_program ~instr =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 3 in
  let thread = list_size (int_range 0 6) instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_program ~instr =
  QCheck.make ~print:Tracing.Trace_codec.encode (gen_program ~instr)

let arb_mem = arb_program ~instr:(gen_mem_instr ~n_addrs:3)
let arb_df = arb_program ~instr:(Testutil.gen_df_instr ~n_addrs:3)

let sound name (v : Oracle.verdict) =
  if not v.sound then
    Alcotest.failf "%s: %d orderings (exhaustive=%b), missed:\n  %s" name
      v.orderings_checked v.exhaustive
      (String.concat "\n  " v.missed);
  v.orderings_checked > 0

let cap = 1_500
let samples = 60

let addrcheck_cases =
  List.map
    (fun (name, model, domains) ->
      Testutil.qtest ~count:120
        (Printf.sprintf "addrcheck zero false negatives (%s)" name)
        arb_mem
        (fun p ->
          Testutil.with_pool_opt domains @@ fun pool ->
          sound name
            (Oracle.addrcheck_zero_false_negatives ~model ~cap ~samples ?pool
               p)))
    [
      ("sequential", Memmodel.Consistency.Sequential, None);
      ("relaxed", Memmodel.Consistency.Relaxed, None);
      ("sequential, 2 domains", Memmodel.Consistency.Sequential, Some 2);
    ]

let initcheck_cases =
  List.map
    (fun (name, model, domains) ->
      Testutil.qtest ~count:120
        (Printf.sprintf "initcheck zero false negatives (%s)" name)
        arb_df
        (fun p ->
          Testutil.with_pool_opt domains @@ fun pool ->
          sound name
            (Oracle.initcheck_zero_false_negatives ~model ~cap ~samples ?pool
               p)))
    [
      ("sequential", Memmodel.Consistency.Sequential, None);
      ("relaxed", Memmodel.Consistency.Relaxed, None);
      ("sequential, 2 domains", Memmodel.Consistency.Sequential, Some 2);
    ]

(* Programs with real taint traffic (sources, sanitizers, sinks), so the
   theorem is checked on runs where the sequential lifeguard actually
   flags something; [arb_df]'s write-only mix keeps covering the
   vacuous side. *)
let arb_taint = arb_program ~instr:(Testutil.gen_taint_instr ~n_addrs:3)

let taintcheck_cases =
  List.concat_map
    (fun (name, model, sequential, domains) ->
      List.map
        (fun (flavour, arb) ->
          Testutil.qtest ~count:100
            (Printf.sprintf "taintcheck zero false negatives (%s, %s)" name
               flavour)
            arb
            (fun p ->
              Testutil.with_pool_opt domains @@ fun pool ->
              sound name
                (Oracle.taintcheck_zero_false_negatives ~model ~cap ~samples
                   ~sequential ?pool p)))
        [ ("dataflow mix", arb_df); ("taint mix", arb_taint) ])
    [
      ("sequential", Memmodel.Consistency.Sequential, true, None);
      ("relaxed", Memmodel.Consistency.Relaxed, false, None);
      ("sequential, 2 domains", Memmodel.Consistency.Sequential, true, Some 2);
    ]

let () =
  Alcotest.run "oracle"
    [
      ("addrcheck", addrcheck_cases);
      ("initcheck", initcheck_cases);
      ("taintcheck", taintcheck_cases);
    ]
