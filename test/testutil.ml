(* Shared helpers for the test suites. *)

(* One seed drives every property in a test binary.  CI pins it with
   QCHECK_SEED for reproducible runs; otherwise a fresh seed is drawn,
   and the first failing property prints the env line that replays the
   whole run. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg "QCHECK_SEED must be an integer")
  | None ->
    Random.self_init ();
    Random.bits ()

let seed_reported = ref false

let report_seed_once () =
  if not !seed_reported then begin
    seed_reported := true;
    Printf.eprintf "\n[testutil] reproduce with: QCHECK_SEED=%d dune runtest\n%!"
      qcheck_seed
  end

let qtest ?(count = 200) name arb prop =
  (* The wrapper fires before shrinking starts, so the seed is printed
     even if a later shrink candidate diverges (e.g. raises). *)
  let prop x =
    match prop x with
    | true -> true
    | false ->
      report_seed_once ();
      false
    | exception e ->
      report_seed_once ();
      raise e
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck.Test.make ~name ~count arb prop)

let check = Alcotest.check
let checkb name expected actual = Alcotest.check Alcotest.bool name expected actual

(* [f None] without a domain count, else [f (Some pool)] on a fresh pool
   of that many domains, shut down afterwards. *)
let with_pool_opt domains f =
  match domains with
  | None -> f None
  | Some d ->
    Butterfly.Domain_pool.with_pool ~name:"test" ~domains:d (fun p -> f (Some p))

(* --- Grids: per-thread block lists, the raw form of an epoch grid. --- *)

type grid = Tracing.Instr.t array list array

let epochs_of_grid (g : grid) = Butterfly.Epochs.of_blocks g

let vo_of_grid ?model (g : grid) = Memmodel.Valid_ordering.of_blocks ?model g

(* Map an ordering step (tid, flat index) to the butterfly instruction id. *)
let id_of_step (g : grid) (s : Memmodel.Ordering.step) =
  let rec find epoch index = function
    | [] -> invalid_arg "id_of_step: index out of range"
    | b :: rest ->
      if index < Array.length b then
        Butterfly.Instr_id.make ~epoch ~tid:s.Memmodel.Ordering.tid ~index
      else find (epoch + 1) (index - Array.length b) rest
  in
  find 0 s.Memmodel.Ordering.index g.(s.Memmodel.Ordering.tid)

let instr_of_step (g : grid) (s : Memmodel.Ordering.step) =
  let rec find index = function
    | [] -> invalid_arg "instr_of_step: index out of range"
    | b :: rest ->
      if index < Array.length b then b.(index)
      else find (index - Array.length b) rest
  in
  find s.Memmodel.Ordering.index g.(s.Memmodel.Ordering.tid)

(* Restrict a grid to its first [n] epochs. *)
let grid_prefix (g : grid) n =
  Array.map (fun bs -> List.filteri (fun l _ -> l < n) bs) g

(* --- The whole-grid reference schedule of the two-pass algorithm. ---

   The butterfly window ([Butterfly.Scheduler.Make]) is the only driver
   in the library.  This is the same two-pass algorithm evaluated over a
   complete grid at once: pass 1 over every block, every epoch summary
   and SOS level, then pass 2 over every block in epoch-major,
   thread-minor order.  The window must reproduce its views and SOS
   history exactly; the Lemma 5.1 oracles read its epoch summaries. *)
module Whole_grid (P : Butterfly.Dataflow.PROBLEM) = struct
  module D = Butterfly.Dataflow.Make (P)

  type t = {
    views : D.instr_view list;  (** every pass-2 view, in the window's order *)
    rows : D.block_summary array array;  (** [rows.(l).(t)]: pass 1 *)
    epoch_summaries : D.epoch_summary array;
    sos : D.Set.t array;  (** [SOS_0 .. SOS_(epochs+1)] *)
  }

  let run epochs =
    let module E = Butterfly.Epochs in
    let num = E.num_epochs epochs and threads = E.threads epochs in
    (* Rows outside the execution are rows of empty blocks. *)
    let summarize_row l =
      Array.init threads (fun tid -> D.summarize (E.block epochs ~epoch:l ~tid))
    in
    let rows = Array.init num summarize_row in
    let row l = if l >= 0 && l < num then rows.(l) else summarize_row l in
    let epoch_summaries =
      Array.init num (fun l ->
          D.epoch_summary
            ~prev:(if l = 0 then None else Some rows.(l - 1))
            ~cur:rows.(l))
    in
    (* SOS_0 = SOS_1 = ∅; SOS_l = GEN_(l-2) ∪ (SOS_(l-1) − KILL_(l-2)). *)
    let sos = Array.make (num + 2) D.Set.empty in
    for l = 2 to num + 1 do
      sos.(l) <-
        D.sos_next ~sos_prev:sos.(l - 1) ~two_back:epoch_summaries.(l - 2)
    done;
    let views = ref [] in
    for l = 0 to num - 1 do
      for tid = 0 to threads - 1 do
        let wings =
          E.wings epochs ~epoch:l ~tid
          |> List.map (fun (b : Butterfly.Block.t) -> (row b.epoch).(b.tid))
        in
        let lsos0 =
          D.lsos ~sos:sos.(l) ~head:(row (l - 1)).(tid)
            ~two_back_row:(row (l - 2)) ~tid
        in
        D.iter_block ~side_in:(D.side_in ~wings) ~lsos0 ~sos:sos.(l)
          (fun v -> views := v :: !views)
          (E.block epochs ~epoch:l ~tid)
      done
    done;
    { views = List.rev !views; rows; epoch_summaries; sos }
end

(* --- Sequential reference analyses over a total ordering. --- *)

(* Reaching definitions: the definitions live at the end of the ordering
   (per location, the last write wins). *)
let live_defs (g : grid) (o : Memmodel.Ordering.t) : Butterfly.Definition.t list =
  let last : (Tracing.Addr.t, Butterfly.Instr_id.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun step ->
      let instr = instr_of_step g step in
      match Tracing.Instr.writes instr with
      | Some x -> Hashtbl.replace last x (id_of_step g step)
      | None -> ())
    o;
  Hashtbl.fold
    (fun loc site acc -> Butterfly.Definition.make ~loc ~site :: acc)
    last []

(* Reaching expressions: expressions available at the end of the ordering
   (generated, and no operand overwritten since). *)
let avail_exprs (g : grid) (o : Memmodel.Ordering.t) : Butterfly.Expr.Set.t =
  List.fold_left
    (fun avail step ->
      let instr = instr_of_step g step in
      let avail =
        match Tracing.Instr.writes instr with
        | Some x ->
          Butterfly.Expr.Set.filter
            (fun e -> not (Butterfly.Expr.mentions x e))
            avail
        | None -> avail
      in
      match Butterfly.Expr.of_instr instr with
      | Some e -> Butterfly.Expr.Set.add e avail
      | None -> avail)
    Butterfly.Expr.Set.empty o

(* --- Small random instruction/grid generators for dataflow tests. --- *)

let gen_addr n_addrs = QCheck.Gen.int_bound (n_addrs - 1)

let gen_df_instr ~n_addrs : Tracing.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = gen_addr n_addrs in
  frequency
    [
      (3, map (fun x -> Tracing.Instr.Assign_const x) addr);
      (3, map2 (fun x a -> Tracing.Instr.Assign_unop (x, a)) addr addr);
      ( 2,
        map3 (fun x a b -> Tracing.Instr.Assign_binop (x, a, b)) addr addr addr
      );
      (1, map (fun a -> Tracing.Instr.Read a) addr);
      (1, return Tracing.Instr.Nop);
    ]

(* Taint-flavoured instruction mix: every transfer-function shape
   TaintCheck distinguishes (source, sanitize, const kill, unary/binary
   inheritance) plus both sink kinds and taint-neutral noise. *)
let gen_taint_instr ~n_addrs : Tracing.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = gen_addr n_addrs in
  frequency
    [
      (2, map (fun x -> Tracing.Instr.Taint_source x) addr);
      (2, map (fun x -> Tracing.Instr.Untaint x) addr);
      (2, map (fun x -> Tracing.Instr.Assign_const x) addr);
      (3, map2 (fun x a -> Tracing.Instr.Assign_unop (x, a)) addr addr);
      ( 2,
        map3 (fun x a b -> Tracing.Instr.Assign_binop (x, a, b)) addr addr addr
      );
      (2, map (fun x -> Tracing.Instr.Jump_via x) addr);
      (2, map (fun x -> Tracing.Instr.Syscall_arg x) addr);
      (1, map (fun a -> Tracing.Instr.Read a) addr);
      (1, return Tracing.Instr.Nop);
    ]

let gen_grid ?(n_addrs = 3) ?(min_threads = 2) ?(max_threads = 3)
    ?(max_epochs = 3) ?(max_block = 2) ?(uneven = false) ?instr_gen () :
    grid QCheck.Gen.t =
  let open QCheck.Gen in
  let instr =
    match instr_gen with Some g -> g | None -> gen_df_instr ~n_addrs
  in
  let* threads = int_range min_threads max_threads in
  let* epochs = int_range 1 max_epochs in
  let block =
    if uneven then
      (* Bias towards empty blocks: threads that heartbeat without
         executing anything stress the padding paths. *)
      frequency
        [
          (1, return [||]);
          (4, map Array.of_list (list_size (int_bound max_block) instr));
        ]
    else map Array.of_list (list_size (int_bound max_block) instr)
  in
  let thread =
    if uneven then
      (* Ragged grids: threads disagree on how many epochs they saw,
         including threads with no blocks at all.  [Epochs.of_blocks]
         pads the missing tail with empty blocks. *)
      let* mine = int_range 0 epochs in
      list_repeat mine block
    else list_repeat epochs block
  in
  map Array.of_list (list_repeat threads thread)

let arb_grid ?n_addrs ?min_threads ?max_threads ?max_epochs ?max_block ?uneven
    ?instr_gen () =
  let print (g : grid) =
    let buf = Buffer.create 256 in
    Array.iteri
      (fun t bs ->
        Buffer.add_string buf (Printf.sprintf "T%d:" t);
        List.iter
          (fun b ->
            Buffer.add_string buf " [";
            Array.iter
              (fun i ->
                Buffer.add_string buf (Tracing.Instr.to_string i);
                Buffer.add_string buf "; ")
              b;
            Buffer.add_string buf "]")
          bs;
        Buffer.add_char buf '\n')
      g;
    Buffer.contents buf
  in
  QCheck.make ~print
    (gen_grid ?n_addrs ?min_threads ?max_threads ?max_epochs ?max_block ?uneven
       ?instr_gen ())

(* --- Engines, driven through [Recovery.Runner.ops]. --- *)

(* The report fingerprint of an uninterrupted run over the grid. *)
let run_fp (ops : (_, _) Recovery.Runner.ops) epochs =
  ops.fp
    (Recovery.Runner.run ops ~threads:(Butterfly.Epochs.threads epochs)
       (Butterfly.Epochs.iter_rows epochs))

(* Feed rows [0, cut), snapshot, check that the revived engine re-encodes
   to the same payload, feed the rest, finish: the report fingerprint. *)
let resumed_via (ops : (_, _) Recovery.Runner.ops) ~cut ~threads rows =
  let st = ops.create ~threads in
  Array.iteri (fun i row -> if i < cut then ops.feed st row) rows;
  let payload = ops.enc st in
  let st' =
    match ops.dec payload with
    | Ok st' -> st'
    | Error m -> Alcotest.failf "decode after %d rows: %s" cut m
  in
  Alcotest.(check string) "snapshot stability" payload (ops.enc st');
  Array.iteri (fun i row -> if i >= cut then ops.feed st' row) rows;
  ops.fp (ops.finish st')

(* One analysis variant of one lifeguard, as the table lists it. *)
type variant = {
  label : string;  (** ["addrcheck"], ["taintcheck[sc,two-phase]"], ... *)
  tag : Recovery.Snapshot.lifeguard;
  setting : string;  (** the table's variant label; [""] if it has one *)
  profile : Qa.Grid_gen.profile;
  batch_fp : ?pool:Butterfly.Domain_pool.t -> Butterfly.Epochs.t -> string;
  resumed_fp :
    ?pool:Butterfly.Domain_pool.t ->
    cut:int ->
    threads:int ->
    Tracing.Instr.t array array array ->
    string;
  final_snapshot : threads:int -> Tracing.Instr.t array array array -> string;
      (** the engine's payload after every row has been fed *)
}

(* "addrcheck" for a lifeguard's only variant, "taintcheck[sc,one-phase]"
   for one of several. *)
let variant_label tag setting =
  let name = Recovery.Snapshot.lifeguard_to_string tag in
  if setting = "" then name else Printf.sprintf "%s[%s]" name setting

(* [Serve.Report]'s table: every lifeguard in every analysis variant. *)
let variants =
  List.concat_map
    (fun tag ->
      let (Serve.Report.Entry e) = Serve.Report.find tag in
      List.map
        (fun (setting, (ops : ?pool:_ -> unit -> _)) ->
          {
            label = variant_label tag setting;
            tag;
            setting;
            profile = Qa.Differential.profile_of tag;
            batch_fp = (fun ?pool epochs -> run_fp (ops ?pool ()) epochs);
            resumed_fp =
              (fun ?pool ~cut ~threads rows ->
                resumed_via (ops ?pool ()) ~cut ~threads rows);
            final_snapshot =
              (fun ~threads rows ->
                let ops = ops () in
                let st = ops.create ~threads in
                Array.iter (ops.feed st) rows;
                ops.enc st);
          })
        e.variants)
    Recovery.Snapshot.all

let find_variant label = List.find (fun v -> v.label = label) variants
