(* Streaming scheduler: the online sliding-window driver must deliver
   exactly the batch driver's per-instruction views from a stream of
   epoch rows, while keeping only a bounded window of epochs resident. *)

module RD = Butterfly.Reaching_definitions
module RE = Butterfly.Reaching_expressions
module Sched_rd = Butterfly.Scheduler.Make (RD.Problem)
module Sched_re = Butterfly.Scheduler.Make (RE.Problem)
module Taint_w = Lifeguards.Taintcheck.Engine
module Race_w = Lifeguards.Racecheck.Engine

type view_key = {
  id : Butterfly.Instr_id.t;
  instr : string;
  lsos : string;
  in_before : string;
  sos : string;
}

let key_rd (v : RD.Analysis.instr_view) =
  {
    id = v.id;
    instr = Tracing.Instr.to_string v.instr;
    lsos = Format.asprintf "%a" Butterfly.Def_set.pp v.lsos_before;
    in_before =
      Format.asprintf "%a" Butterfly.Def_set.pp (RD.Analysis.in_before v);
    sos = Format.asprintf "%a" Butterfly.Def_set.pp v.sos;
  }

let key_re (v : RE.Analysis.instr_view) =
  {
    id = v.id;
    instr = Tracing.Instr.to_string v.instr;
    lsos = Format.asprintf "%a" Butterfly.Expr_set.pp v.lsos_before;
    in_before =
      Format.asprintf "%a" Butterfly.Expr_set.pp (RE.Analysis.in_before v);
    sos = Format.asprintf "%a" Butterfly.Expr_set.pp v.sos;
  }

let batch_views_rd program =
  let acc = ref [] in
  let r =
    RD.run
      ~on_instr:(fun v -> acc := key_rd v :: !acc)
      (Butterfly.Epochs.of_program program)
  in
  (List.rev !acc, Format.asprintf "%a" Butterfly.Def_set.pp r.sos.(Array.length r.sos - 1))


let rows_of_program program =
  let rows = ref [] in
  Butterfly.Epochs.iter_rows (Butterfly.Epochs.of_program program) (fun row ->
      rows := row :: !rows);
  List.rev !rows

let stream_views_rd program =
  let acc = ref [] in
  let threads = Tracing.Program.threads program in
  let s = Sched_rd.create ~threads (fun v -> acc := key_rd v :: !acc) () in
  List.iter (Sched_rd.feed_row s) (rows_of_program program);
  let history = Sched_rd.finish s in
  let sos =
    Format.asprintf "%a" Butterfly.Def_set.pp history.(Array.length history - 1)
  in
  (List.rev !acc, sos)

let gen_program =
  let open QCheck.Gen in
  let* threads = int_range 2 3 in
  let* every = int_range 1 4 in
  let thread = list_size (int_range 0 14) (Testutil.gen_df_instr ~n_addrs:3) in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every

let arb_program = QCheck.make ~print:Tracing.Trace_codec.encode gen_program

let rd_equivalence =
  Testutil.qtest ~count:150 "streaming == batch (row feed)" arb_program
    (fun p ->
      let batch, batch_sos = batch_views_rd p in
      let stream, stream_sos = stream_views_rd p in
      batch = stream && batch_sos = stream_sos)

let re_equivalence =
  Testutil.qtest ~count:100 "streaming == batch (reaching expressions)"
    arb_program
    (fun p ->
      let acc_b = ref [] in
      ignore
        (RE.run
           ~on_instr:(fun v -> acc_b := key_re v :: !acc_b)
           (Butterfly.Epochs.of_program p));
      let acc_s = ref [] in
      let threads = Tracing.Program.threads p in
      let s = Sched_re.create ~threads (fun v -> acc_s := key_re v :: !acc_s) () in
      List.iter (Sched_re.feed_row s) (rows_of_program p);
      ignore (Sched_re.finish s);
      !acc_b = !acc_s)

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
      let batch =
        RD.run (Butterfly.Epochs.of_program (Tracing.Program.of_instrs [ []; []; [] ]))
      in
      Alcotest.(check int) "one epoch" 1 (Sched_rd.processed s);
      Alcotest.(check int) "batch agrees" 1 (Butterfly.Epochs.num_epochs batch.epochs);
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

(* --- Pooled streaming battery (the tentpole differential test). ---

   The pooled scheduler must deliver byte-identical view sequences and
   the same SOS history as the batch driver, for a May problem (reaching
   definitions) and a Must problem (reaching expressions), at every pool
   width — over ragged grids with empty blocks and threads that quit
   early. *)

let arb_uneven_grid =
  Testutil.arb_grid ~n_addrs:3 ~max_threads:4 ~max_epochs:4 ~max_block:3
    ~uneven:true ()

let pooled_equiv_rd domains g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] in
  let br = RD.run ~on_instr:(fun v -> batch := key_rd v :: !batch) epochs in
  let stream = ref [] in
  let hist =
    Butterfly.Domain_pool.with_pool ~name:"test-rd" ~domains (fun pool ->
        Sched_rd.run ~pool (fun v -> stream := key_rd v :: !stream) () epochs)
  in
  !batch = !stream
  && Array.length hist = Array.length br.sos
  && Array.for_all2 Butterfly.Def_set.equal br.sos hist

let pooled_equiv_re domains g =
  let epochs = Testutil.epochs_of_grid g in
  let batch = ref [] in
  let br = RE.run ~on_instr:(fun v -> batch := key_re v :: !batch) epochs in
  let stream = ref [] in
  let hist =
    Butterfly.Domain_pool.with_pool ~name:"test-re" ~domains (fun pool ->
        Sched_re.run ~pool (fun v -> stream := key_re v :: !stream) () epochs)
  in
  !batch = !stream
  && Array.length hist = Array.length br.sos
  && Array.for_all2 Butterfly.Expr_set.equal br.sos hist

let pooled_tests =
  List.concat_map
    (fun domains ->
      [
        Testutil.qtest ~count:180
          (Printf.sprintf "pooled == batch (May/RD, %d domains)" domains)
          arb_uneven_grid (pooled_equiv_rd domains);
        Testutil.qtest ~count:170
          (Printf.sprintf "pooled == batch (Must/RE, %d domains)" domains)
          arb_uneven_grid (pooled_equiv_re domains);
      ])
    [ 1; 2; 8 ]

let () =
  Alcotest.run "scheduler"
    [
      ("equivalence", [ rd_equivalence; re_equivalence ]);
      ("pooled", pooled_tests);
      ( "streaming",
        [
          bounded_window; wrong_width; feed_after_finish; empty_feed;
          finish_idempotent; summary_rows;
        ] );
    ]
