(* Lifeguards over a 2^40 address span.

   Fact sets scale with the facts, not with the address range, so a
   trace whose addresses sit 2^39 apart must report exactly what the
   same trace reports over a dense range.  Seeded ragged grids are
   relocated into four clusters 2^39 apart by a monotone map that keeps
   every malloc/free range contiguous, then three batteries run per
   lifeguard (TaintCheck in each analysis variant):

   - relocation: the report of the relocated grid is the report of the
     original grid with every address relocated, compared through the
     lifeguard's canonical fingerprint (a metamorphic check: no oracle
     needed, and every report field that holds an address is covered);
   - drivers: the pooled drivers, on 2- and 8-domain pools, reproduce
     the sequential report of the relocated grid;
   - resume: a snapshot of the relocated grid taken at any epoch
     boundary re-encodes byte for byte and revives to the uninterrupted
     report. *)

module I = Butterfly.Interval_set
module AC = Lifeguards.Addrcheck
module IC = Lifeguards.Initcheck
module TC = Lifeguards.Taintcheck
module RC = Lifeguards.Racecheck

(* Denser than [Grid_gen.default_shape]: no valid-ordering oracle has to
   stay feasible here, so more epochs and eight addresses give wider,
   more fragmented fact sets. *)
let shape =
  { Qa.Grid_gen.default_shape with max_epochs = 4; max_block = 4; n_addrs = 8 }

(* Address pair {2k, 2k+1} goes to {k * 2^39, k * 2^39 + 1}.  The Alloc
   profile's ranges start on even addresses and span at most two bytes,
   and the other profiles' ranges span one, so no range is split. *)
let stride = 1 lsl 39
let reloc a = ((a lsr 1) * stride) + (a land 1)

let reloc_instr : Tracing.Instr.t -> Tracing.Instr.t = function
  | Assign_const a -> Assign_const (reloc a)
  | Assign_unop (d, s) -> Assign_unop (reloc d, reloc s)
  | Assign_binop (d, a, b) -> Assign_binop (reloc d, reloc a, reloc b)
  | Read a -> Read (reloc a)
  | (Malloc { base; size } | Free { base; size }) as i ->
    if size > 2 || (size = 2 && base land 1 = 1) then
      invalid_arg "reloc_instr: range would straddle a cluster";
    (match i with
    | Malloc _ -> Malloc { base = reloc base; size }
    | _ -> Free { base = reloc base; size })
  | Taint_source a -> Taint_source (reloc a)
  | Untaint a -> Untaint (reloc a)
  | Jump_via a -> Jump_via (reloc a)
  | Syscall_arg a -> Syscall_arg (reloc a)
  | Lock a -> Lock (reloc a)
  | Unlock a -> Unlock (reloc a)
  | (Fork _ | Join _ | Nop) as i -> i

let reloc_grid (g : Qa.Grid.t) : Qa.Grid.t =
  Array.map (List.map (Array.map reloc_instr)) g

let reloc_set s = I.of_list (List.map reloc (I.elements s))

let reloc_ac (r : AC.report) =
  {
    r with
    errors =
      List.map (fun (e : AC.error) -> { e with addrs = reloc_set e.addrs }) r.errors;
    sos = Array.map reloc_set r.sos;
  }

let reloc_ic (r : IC.report) =
  {
    r with
    errors =
      List.map (fun (e : IC.error) -> { e with addrs = reloc_set e.addrs }) r.errors;
    sos = Array.map reloc_set r.sos;
  }

let reloc_tc (r : TC.report) =
  {
    r with
    errors = List.map (fun (e : TC.error) -> { e with sink = reloc e.sink }) r.errors;
    sos_tainted = Array.map (List.map reloc) r.sos_tainted;
  }

let reloc_rc (r : RC.report) =
  {
    r with
    races = List.map (fun (x : RC.race) -> { x with addr = reloc x.addr }) r.races;
    entry_locks = Array.map (Array.map (List.map reloc)) r.entry_locks;
  }

(* The sequential report of the table variant [v], addresses relocated,
   fingerprinted: the one per-lifeguard piece, since relocation rewrites
   each report type's own fields. *)
let relocated_fp (v : Testutil.variant) e =
  match v.tag with
  | Addrcheck -> AC.fingerprint (reloc_ac (AC.run e))
  | Initcheck -> IC.fingerprint (reloc_ic (IC.run e))
  | Taintcheck ->
    let params = List.assoc v.setting Serve.Report.taintcheck_variants in
    TC.fingerprint (reloc_tc (TC.Engine.run () params e))
  | Racecheck -> RC.fingerprint (reloc_rc (RC.run e))

(* [n] seeded grids for [lg]: the original and its relocation. *)
let iter_grids (lg : Testutil.variant) ~seed ~n f =
  let rng = Random.State.make [| 0x5ba7; seed |] in
  for g = 1 to n do
    let grid = Qa.Grid_gen.grid ~shape lg.profile rng in
    f g grid (reloc_grid grid)
  done

let diverged (lg : Testutil.variant) what g grid expected got =
  Alcotest.failf "%s: %s diverged on grid #%d:\n%s\n%s\nvs\n%s" lg.label what g
    (Format.asprintf "%a" Qa.Grid.pp grid)
    expected got

let relocation_battery lg () =
  iter_grids lg ~seed:1 ~n:150 (fun g grid far ->
      let expected = relocated_fp lg (Qa.Grid.epochs grid) in
      let got = lg.batch_fp (Qa.Grid.epochs far) in
      if not (String.equal expected got) then
        diverged lg "relocated report" g grid expected got)

let drivers_battery lg () =
  List.iter
    (fun domains ->
      Butterfly.Domain_pool.with_pool ~name:"sparse-span" ~domains (fun pool ->
          iter_grids lg ~seed:(2 + domains) ~n:40 (fun g _ far ->
              let epochs = Qa.Grid.epochs far in
              let expected = lg.batch_fp epochs in
              let got = lg.batch_fp ~pool epochs in
              if not (String.equal expected got) then
                diverged lg
                  (Printf.sprintf "pooled(%d)" domains)
                  g far expected got)))
    [ 2; 8 ]

let resume_battery lg () =
  iter_grids lg ~seed:3 ~n:30 (fun g _ far ->
      let epochs = Qa.Grid.epochs far in
      let rows = Recovery.Runner.rows_of epochs in
      let threads = Butterfly.Epochs.threads epochs in
      let expected = lg.batch_fp epochs in
      for cut = 0 to Array.length rows do
        let got = lg.resumed_fp ~cut ~threads rows in
        if not (String.equal expected got) then
          diverged lg (Printf.sprintf "resume at epoch %d" cut) g far expected got
      done)

let () =
  let per_lifeguard what battery =
    List.map
      (fun (lg : Testutil.variant) ->
        Alcotest.test_case (Printf.sprintf "%s: %s" lg.label what) `Slow
          (battery lg))
      Testutil.variants
  in
  Alcotest.run "sparse_span"
    [
      ( "relocation",
        per_lifeguard "150 grids relocated 2^39 apart report the same"
          relocation_battery );
      ( "drivers",
        per_lifeguard "pooled matches sequential" drivers_battery );
      ("resume", per_lifeguard "resume at every epoch" resume_battery);
    ]
