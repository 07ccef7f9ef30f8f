(* The butterfly window over the dataflow kernel (Scheduler.Make), the
   one two-pass driver in the library, against the whole-grid reference
   (Testutil.Whole_grid): fed a stream of epoch rows, inline or on
   1/2/8-domain pools, it must deliver exactly the reference's
   per-instruction views, in its order, and its whole SOS history, for a
   May problem (reaching definitions) and a Must problem (reaching
   expressions) — while keeping only a bounded window of epochs
   resident. *)

module RD = Butterfly.Reaching_definitions
module RE = Butterfly.Reaching_expressions
module Sched_rd = RD.Engine
module Taint_w = Lifeguards.Taintcheck.Engine
module Race_w = Lifeguards.Racecheck.Engine

let rows_of_program program =
  let rows = ref [] in
  Butterfly.Epochs.iter_rows (Butterfly.Epochs.of_program program) (fun row ->
      rows := row :: !rows);
  List.rev !rows

module Against_grid (P : Butterfly.Dataflow.PROBLEM) = struct
  module G = Testutil.Whole_grid (P)
  module W = Butterfly.Scheduler.Make (P)

  let key (v : G.D.instr_view) =
    Format.asprintf "%a|%s|%a|%a|%a|%a" Butterfly.Instr_id.pp v.id
      (Tracing.Instr.to_string v.instr)
      P.Set.pp v.lsos_before P.Set.pp (G.D.in_before v) P.Set.pp v.side_in
      P.Set.pp v.sos

  let same_as_grid epochs (seen, history) =
    let g = G.run epochs in
    List.map key g.views = List.rev seen
    && Array.length history = Array.length g.sos
    && Array.for_all2 P.Set.equal g.sos history

  (* The window fed one row at a time through [create]/[feed_row]. *)
  let row_feed program =
    let seen = ref [] in
    let w =
      W.create ~threads:(Tracing.Program.threads program)
        (fun v -> seen := key v :: !seen)
        ()
    in
    List.iter (W.feed_row w) (rows_of_program program);
    let history = W.finish w in
    same_as_grid (Butterfly.Epochs.of_program program) (!seen, history)

  (* [W.run] over a grid, without a pool or on a fresh one. *)
  let run ?domains grid =
    let epochs = Testutil.epochs_of_grid grid in
    let seen = ref [] in
    let history =
      Testutil.with_pool_opt domains (fun pool ->
          W.run ?pool (fun v -> seen := key v :: !seen) () epochs)
    in
    same_as_grid epochs (!seen, history)
end

module May = Against_grid (RD.Problem)
module Must = Against_grid (RE.Problem)

let gen_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 4 in
  let thread = list_size (int_range 0 14) (Testutil.gen_df_instr ~n_addrs:3) in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_program = QCheck.make ~print:Tracing.Trace_codec.encode gen_program

let row_feed =
  [
    Testutil.qtest ~count:150 "row feed == whole grid (May/RD)" arb_program
      May.row_feed;
    Testutil.qtest ~count:100 "row feed == whole grid (Must/RE)" arb_program
      Must.row_feed;
  ]

let expect_invalid_arg name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s: expected Invalid_argument" name

(* Every kernel on one long stream: rows l-1-rows_behind .. l are
   resident just before epoch l-1 is processed, so the high-water mark
   is rows_behind + 2 (4 for the dataflow kernel, 3 for TaintCheck and
   RaceCheck). *)
let bounded_window =
  Alcotest.test_case "window stays bounded on long streams" `Quick (fun () ->
      let instrs = List.init 2_000 (fun k -> Tracing.Instr.Assign_const (k mod 5)) in
      let rows =
        Tracing.Program.of_instrs [ instrs; instrs ]
        |> Tracing.Program.with_heartbeats ~every:10
        |> rows_of_program
      in
      let bounded (type t) name ~rows_behind ~(create : unit -> t) ~feed
          ~finish ~processed ~max_resident =
        let s = create () in
        List.iter (feed s) rows;
        finish s;
        Alcotest.(check int) (name ^ ": epochs completed") 201 (processed s);
        Alcotest.(check int) (name ^ ": resident window") (rows_behind + 2)
          (max_resident s)
      in
      bounded "dataflow" ~rows_behind:2
        ~create:(fun () -> Sched_rd.create ~threads:2 (fun _ -> ()) ())
        ~feed:Sched_rd.feed_row
        ~finish:(fun s -> ignore (Sched_rd.finish s))
        ~processed:Sched_rd.processed ~max_resident:Sched_rd.max_resident;
      bounded "taintcheck" ~rows_behind:1
        ~create:(fun () ->
          Taint_w.create ~threads:2 () { sequential = true; two_phase = true })
        ~feed:Taint_w.feed_row
        ~finish:(fun s -> ignore (Taint_w.finish s))
        ~processed:Taint_w.processed ~max_resident:Taint_w.max_resident;
      bounded "racecheck" ~rows_behind:1
        ~create:(fun () -> Race_w.create ~threads:2 () ())
        ~feed:Race_w.feed_row
        ~finish:(fun s -> ignore (Race_w.finish s))
        ~processed:Race_w.processed ~max_resident:Race_w.max_resident)

let wrong_width =
  Alcotest.test_case "a row of the wrong width raises" `Quick (fun () ->
      let s = Sched_rd.create ~threads:2 (fun _ -> ()) () in
      expect_invalid_arg "narrow row" (fun () ->
          Sched_rd.feed_row s [| [| Tracing.Instr.Nop |] |]);
      expect_invalid_arg "wide row" (fun () ->
          Sched_rd.feed_row s [| [||]; [||]; [||] |]);
      (* A refused row leaves the window untouched. *)
      Sched_rd.feed_row s [| [| Tracing.Instr.Nop |]; [||] |];
      ignore (Sched_rd.finish s);
      Alcotest.(check int) "one epoch" 1 (Sched_rd.processed s))

let feed_after_finish =
  Alcotest.test_case "feed_row after finish raises" `Quick (fun () ->
      let s = Sched_rd.create ~threads:1 (fun _ -> ()) () in
      Sched_rd.feed_row s [| [| Tracing.Instr.Nop |] |];
      ignore (Sched_rd.finish s);
      expect_invalid_arg "feed after finish" (fun () ->
          Sched_rd.feed_row s [| [||] |]))

let empty_feed =
  Alcotest.test_case "an empty feed gives one epoch" `Quick (fun () ->
      let views = ref 0 in
      let s = Sched_rd.create ~threads:3 (fun _ -> incr views) () in
      let history = Sched_rd.finish s in
      let grid =
        Butterfly.Epochs.of_program (Tracing.Program.of_instrs [ []; []; [] ])
      in
      Alcotest.(check int) "one epoch" 1 (Sched_rd.processed s);
      Alcotest.(check int) "the grid agrees" 1 (Butterfly.Epochs.num_epochs grid);
      Alcotest.(check int) "no views" 0 !views;
      Alcotest.(check int) "SOS_0 .. SOS_2" 3 (Array.length history))

let finish_idempotent =
  Alcotest.test_case "finish is idempotent" `Quick (fun () ->
      let views = ref 0 in
      let s = Sched_rd.create ~threads:2 (fun _ -> incr views) () in
      Sched_rd.feed_row s
        [| [| Tracing.Instr.Assign_const 0 |]; [| Tracing.Instr.Assign_const 1 |] |];
      Sched_rd.feed_row s [| [| Tracing.Instr.Nop |]; [||] |];
      let history = Sched_rd.finish s in
      let again = Sched_rd.finish s in
      Alcotest.(check int) "epochs" 2 (Sched_rd.processed s);
      Alcotest.(check int) "views delivered once" 3 !views;
      Testutil.checkb "SOS history unchanged" true
        (Array.for_all2 Butterfly.Def_set.equal history again))

let summary_rows =
  Alcotest.test_case "summary_row serves resident rows, refuses retired ones"
    `Quick (fun () ->
      let s = Sched_rd.create ~threads:2 (fun _ -> ()) () in
      let row l = [| [| Tracing.Instr.Assign_const l |]; [||] |] in
      for l = 0 to 4 do
        Sched_rd.feed_row s (row l)
      done;
      (* Epochs 0..3 are processed; rows 2..4 stay resident. *)
      Alcotest.(check int) "processed" 4 (Sched_rd.processed s);
      for l = 2 to 4 do
        let b = (Option.get (Sched_rd.summary_row s l)).(0).block in
        Alcotest.(check int) "resident row carries its block" l b.epoch;
        Alcotest.(check int) "one instruction" 1 (Butterfly.Block.length b)
      done;
      Testutil.checkb "rows past the feed are outside the execution" true
        (Sched_rd.summary_row s 5 = None);
      expect_invalid_arg "retired row" (fun () ->
          ignore (Sched_rd.summary_row s 1)))

(* --- Pooled battery. ---

   The same comparison over ragged grids (empty blocks, threads that
   quit early), inline and at every pool width, in two grid shapes. *)

let arb_uneven_grid =
  Testutil.arb_grid ~n_addrs:3 ~max_threads:4 ~max_epochs:4 ~max_block:3
    ~uneven:true ()

let pooled_tests =
  List.concat_map
    (fun domains ->
      [
        Testutil.qtest ~count:180
          (Printf.sprintf "pooled == whole grid (May/RD, %d domains)" domains)
          arb_uneven_grid (May.run ~domains);
        Testutil.qtest ~count:170
          (Printf.sprintf "pooled == whole grid (Must/RE, %d domains)" domains)
          arb_uneven_grid (Must.run ~domains);
      ])
    [ 1; 2; 8 ]

(* Longer epochs and blocks: up to 4 threads x 5 epochs x 4 instrs. *)
let arb_long_grid =
  Testutil.arb_grid ~n_addrs:3 ~max_threads:4 ~max_epochs:5 ~max_block:4
    ~uneven:true ()

let long_grid_tests =
  List.concat_map
    (fun (problem, run) ->
      Testutil.qtest ~count:150
        (Printf.sprintf "inline == whole grid (%s)" problem)
        arb_long_grid (run ?domains:None)
      :: List.map
           (fun domains ->
             Testutil.qtest ~count:80
               (Printf.sprintf "%d-domain pool == whole grid (%s)" domains
                  problem)
               arb_long_grid (run ?domains:(Some domains)))
           [ 1; 2; 8 ])
    [ ("May/RD", May.run); ("Must/RE", Must.run) ]

let () =
  Alcotest.run "scheduler"
    [
      ("equivalence", row_feed);
      ("pooled", pooled_tests);
      ("whole-grid", long_grid_tests);
      ( "streaming",
        [
          bounded_window; wrong_width; feed_after_finish; empty_feed;
          finish_idempotent; summary_rows;
        ] );
    ]
