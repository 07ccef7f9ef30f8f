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

let rows_of_epochs epochs =
  let threads = Butterfly.Epochs.threads epochs in
  Array.init (Butterfly.Epochs.num_epochs epochs) (fun epoch ->
      Array.init threads (fun tid ->
          (Butterfly.Epochs.block epochs ~epoch ~tid).Butterfly.Block.instrs))

(* Feed rows [0, cut), snapshot, check the revived state re-encodes to
   the same payload, feed the rest, finish. *)
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
  Alcotest.(check string) "snapshot stability" payload (encode st');
  Array.iteri (fun i row -> if i >= cut then feed st' row) rows;
  fp (finish st')

type lifeguard = {
  label : string;
  profile : Qa.Grid_gen.profile;
  fp :
    ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> string;
  relocated_fp : Butterfly.Epochs.t -> string;
      (** the sequential report, addresses relocated, fingerprinted *)
  resumed_fp : cut:int -> threads:int -> Tracing.Instr.t array array array -> string;
}

let addrcheck =
  {
    label = "addrcheck";
    profile = Qa.Grid_gen.Alloc;
    fp = (fun ?pool e -> AC.fingerprint (AC.run ?pool e));
    relocated_fp = (fun e -> AC.fingerprint (reloc_ac (AC.run e)));
    resumed_fp =
      resumed_via
        ~create:(fun ~threads () -> AC.Resumable.create ~threads ())
        ~feed:AC.Resumable.feed_epoch ~encode:AC.Resumable.encode
        ~decode:(fun p -> AC.Resumable.decode p)
        ~finish:AC.Resumable.finish ~fp:AC.fingerprint;
  }

let initcheck =
  {
    label = "initcheck";
    profile = Qa.Grid_gen.Init;
    fp = (fun ?pool e -> IC.fingerprint (IC.run ?pool e));
    relocated_fp = (fun e -> IC.fingerprint (reloc_ic (IC.run e)));
    resumed_fp =
      resumed_via
        ~create:(fun ~threads () -> IC.Resumable.create ~threads ())
        ~feed:IC.Resumable.feed_epoch ~encode:IC.Resumable.encode
        ~decode:(fun p -> IC.Resumable.decode p)
        ~finish:IC.Resumable.finish ~fp:IC.fingerprint;
  }

let taintcheck ~sequential ~two_phase vlabel =
  {
    label = Printf.sprintf "taintcheck[%s]" vlabel;
    profile = Qa.Grid_gen.Taint;
    fp =
      (fun ?pool e ->
        TC.fingerprint (TC.run ~sequential ~two_phase ?pool e));
    relocated_fp =
      (fun e -> TC.fingerprint (reloc_tc (TC.run ~sequential ~two_phase e)));
    resumed_fp =
      resumed_via
        ~create:(fun ~threads () ->
          TC.Resumable.create ~sequential ~two_phase ~threads ())
        ~feed:TC.Resumable.feed_epoch ~encode:TC.Resumable.encode
        ~decode:(fun p -> TC.Resumable.decode p)
        ~finish:TC.Resumable.finish ~fp:TC.fingerprint;
  }

let racecheck =
  {
    label = "racecheck";
    profile = Qa.Grid_gen.Racy;
    fp = (fun ?pool e -> RC.fingerprint (RC.run ?pool e));
    relocated_fp = (fun e -> RC.fingerprint (reloc_rc (RC.run e)));
    resumed_fp =
      resumed_via
        ~create:(fun ~threads () -> RC.Resumable.create ~threads ())
        ~feed:RC.Resumable.feed_epoch ~encode:RC.Resumable.encode
        ~decode:(fun p -> RC.Resumable.decode p)
        ~finish:RC.Resumable.finish ~fp:RC.fingerprint;
  }

let lifeguards =
  [
    addrcheck;
    initcheck;
    racecheck;
    taintcheck ~sequential:true ~two_phase:true "sc,two-phase";
    taintcheck ~sequential:false ~two_phase:true "relaxed,two-phase";
    taintcheck ~sequential:true ~two_phase:false "sc,one-phase";
  ]

(* [n] seeded grids for [lg]: the original and its relocation. *)
let iter_grids lg ~seed ~n f =
  let rng = Random.State.make [| 0x5ba7; seed |] in
  for g = 1 to n do
    let grid = Qa.Grid_gen.grid ~shape lg.profile rng in
    f g grid (reloc_grid grid)
  done

let diverged lg what g grid expected got =
  Alcotest.failf "%s: %s diverged on grid #%d:\n%s\n%s\nvs\n%s" lg.label what g
    (Format.asprintf "%a" Qa.Grid.pp grid)
    expected got

let relocation_battery lg () =
  iter_grids lg ~seed:1 ~n:150 (fun g grid far ->
      let expected = lg.relocated_fp (Qa.Grid.epochs grid) in
      let got = lg.fp (Qa.Grid.epochs far) in
      if not (String.equal expected got) then
        diverged lg "relocated report" g grid expected got)

let drivers_battery lg () =
  List.iter
    (fun domains ->
      Butterfly.Domain_pool.with_pool ~name:"sparse-span" ~domains (fun pool ->
          iter_grids lg ~seed:(2 + domains) ~n:40 (fun g _ far ->
              let epochs = Qa.Grid.epochs far in
              let expected = lg.fp epochs in
              let got = lg.fp ~pool epochs in
              if not (String.equal expected got) then
                diverged lg
                  (Printf.sprintf "pooled(%d)" domains)
                  g far expected got)))
    [ 2; 8 ]

let resume_battery lg () =
  iter_grids lg ~seed:3 ~n:30 (fun g _ far ->
      let epochs = Qa.Grid.epochs far in
      let rows = rows_of_epochs epochs in
      let threads = Butterfly.Epochs.threads epochs in
      let expected = lg.fp epochs in
      for cut = 0 to Array.length rows do
        let got = lg.resumed_fp ~cut ~threads rows in
        if not (String.equal expected got) then
          diverged lg (Printf.sprintf "resume at epoch %d" cut) g far expected got
      done)

let () =
  let per_lifeguard what battery =
    List.map
      (fun lg ->
        Alcotest.test_case (Printf.sprintf "%s: %s" lg.label what) `Slow
          (battery lg))
      lifeguards
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
