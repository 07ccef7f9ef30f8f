(* Checkpoint/restore correctness.

   Three layers, matching the subsystem's trust chain:

   - the binary envelope ([Tracing.Binio]): round-trips, and rejects
     truncation, version skew and every single-bit flip deterministically;
   - the lifeguard engines: for every grid and EVERY epoch
     boundary, checkpoint + restore + continue produces a report
     fingerprint byte-identical to the uninterrupted run, across
     sequential and pooled drivers and every TaintCheck variant;
   - the window itself over the dataflow kernel ([Scheduler.Make(P)]): same
     resume-equivalence at every row boundary, for a May and a Must
     problem. *)

module IS = Butterfly.Interval_set
module Binio = Tracing.Binio

let check = Alcotest.check
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Binio primitives and the framed envelope.                           *)

let roundtrip_ints () =
  let w = Binio.W.create () in
  let uns = [ 0; 1; 127; 128; 300; 0xffff; max_int ] in
  let sgn = [ 0; -1; 1; -64; 63; -(max_int / 2); max_int / 2 ] in
  List.iter (Binio.W.varint w) uns;
  List.iter (Binio.W.sint w) sgn;
  Binio.W.string w "hello";
  Binio.W.list w Binio.W.bool [ true; false; true ];
  let r = Binio.R.of_string (Binio.W.contents w) in
  List.iter (fun n -> check Alcotest.int "varint" n (Binio.R.varint r)) uns;
  List.iter (fun n -> check Alcotest.int "sint" n (Binio.R.sint r)) sgn;
  checks "string" "hello" (Binio.R.string r);
  check
    Alcotest.(list bool)
    "list" [ true; false; true ]
    (Binio.R.list r Binio.R.bool);
  Binio.R.expect_end r

let crc_vector () =
  (* The standard CRC-32 check value. *)
  check Alcotest.int "crc32(123456789)" 0xcbf43926 (Binio.crc32 "123456789")

let truncated_reader () =
  let r = Binio.R.of_string "" in
  (match Binio.R.u8 r with
  | _ -> Alcotest.fail "u8 on empty input must raise"
  | exception Binio.R.Corrupt _ -> ());
  let w = Binio.W.create () in
  Binio.W.string w "abc";
  let s = Binio.W.contents w in
  let r = Binio.R.of_string (String.sub s 0 (String.length s - 1)) in
  match Binio.R.string r with
  | _ -> Alcotest.fail "truncated string must raise"
  | exception Binio.R.Corrupt _ -> ()

let frame_roundtrip () =
  let framed = Binio.frame ~magic:"MAGI" ~version:7 "payload bytes" in
  match Binio.unframe ~magic:"MAGI" ~version:7 framed with
  | Ok p -> checks "payload" "payload bytes" p
  | Error m -> Alcotest.failf "unframe: %s" m

let frame_rejections () =
  let framed = Binio.frame ~magic:"MAGI" ~version:7 "payload" in
  let expect_err label input expected =
    match Binio.unframe ~magic:"MAGI" ~version:7 input with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error m -> checks label expected m
  in
  expect_err "bad magic" ("XXXX" ^ String.sub framed 4 (String.length framed - 4))
    "bad magic";
  expect_err "truncated" (String.sub framed 0 6) "truncated envelope";
  let skewed = Bytes.of_string framed in
  Bytes.set skewed 4 (Char.chr 8);
  (match Binio.unframe ~magic:"MAGI" ~version:7 (Bytes.to_string skewed) with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error m -> checks "version skew" "unsupported format version 8 (expected 7)" m);
  (* Every single-bit flip (outside the version byte, reported as skew)
     must be caught by the CRC. *)
  for byte = 0 to String.length framed - 1 do
    if byte <> 4 then
      for bit = 0 to 7 do
        let b = Bytes.of_string framed in
        Bytes.set b byte (Char.chr (Char.code framed.[byte] lxor (1 lsl bit)));
        match Binio.unframe ~magic:"MAGI" ~version:7 (Bytes.to_string b) with
        | Ok _ -> Alcotest.failf "bit flip at %d.%d accepted" byte bit
        | Error _ -> ()
      done
  done

(* ------------------------------------------------------------------ *)
(* Trace codec: versioned framing, legacy decode.                      *)

let gen_trace seed =
  let rng = Random.State.make [| 0x7ace; seed |] in
  Qa.Grid.to_program (Qa.Grid_gen.grid Qa.Grid_gen.Mixed rng)

let codec_roundtrip () =
  for seed = 0 to 19 do
    let p = gen_trace seed in
    let bin = Tracing.Trace_codec.encode_binary p in
    match Tracing.Trace_codec.decode_binary bin with
    | Error m -> Alcotest.failf "decode: %s" m
    | Ok p' ->
      checks "binary round-trip" (Tracing.Trace_codec.encode p)
        (Tracing.Trace_codec.encode p')
  done

let codec_legacy_decode () =
  (* A legacy trace is the same payload behind the "BFLY1" magic, with no
     version byte and no checksum; the decoder must still read it. *)
  for seed = 0 to 9 do
    let p = gen_trace seed in
    let bin = Tracing.Trace_codec.encode_binary p in
    let payload =
      (* strip "BFLY" + version prefix and the 4-byte CRC trailer *)
      String.sub bin 5 (String.length bin - 9)
    in
    match Tracing.Trace_codec.decode_binary ("BFLY1" ^ payload) with
    | Error m -> Alcotest.failf "legacy decode: %s" m
    | Ok p' ->
      checks "legacy round-trip" (Tracing.Trace_codec.encode p)
        (Tracing.Trace_codec.encode p')
  done

let codec_rejects_corruption () =
  let p = gen_trace 42 in
  let bin = Tracing.Trace_codec.encode_binary p in
  (* Version skew: stable error message. *)
  let skewed = Bytes.of_string bin in
  Bytes.set skewed 4 '\x63';
  (match Tracing.Trace_codec.decode_binary (Bytes.to_string skewed) with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error m ->
    checks "version skew" "unsupported format version 99 (expected 2)" m);
  (* Any single bit flip outside the version byte is rejected. *)
  for byte = 0 to String.length bin - 1 do
    if byte <> 4 then (
      let b = Bytes.of_string bin in
      Bytes.set b byte (Char.chr (Char.code bin.[byte] lxor 1));
      match Tracing.Trace_codec.decode_binary (Bytes.to_string b) with
      | Ok _ -> Alcotest.failf "bit flip at byte %d accepted" byte
      | Error _ -> ())
  done;
  (* Truncations are rejected (never misparsed, never an exception). *)
  for len = 0 to String.length bin - 1 do
    match Tracing.Trace_codec.decode_binary (String.sub bin 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d accepted" len
    | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Resume-from-every-epoch equivalence, per lifeguard.                 *)

(* Every lifeguard in every analysis variant of the [Serve.Report] table
   ([Testutil.variants]), each driven through a cut: feed rows [0, cut),
   serialize, revive, feed the rest, finish.  [Testutil.resumed_via]
   also asserts the snapshot is stable: re-encoding the revived state
   reproduces it byte for byte. *)
let rows_of_epochs = Recovery.Runner.rows_of

(* The deterministic battery: [n_grids] seeded grids per engine, resumed
   from EVERY epoch boundary (including 0 and num_epochs). *)
let every_epoch_battery (e : Testutil.variant) ~n_grids () =
  let rng = Random.State.make [| 0xeb0c; 17 |] in
  for g = 1 to n_grids do
    let grid = Qa.Grid_gen.grid e.profile rng in
    let epochs = Qa.Grid.epochs grid in
    let rows = rows_of_epochs epochs in
    let threads = Butterfly.Epochs.threads epochs in
    let expected = e.batch_fp epochs in
    for cut = 0 to Array.length rows do
      let got = e.resumed_fp ~cut ~threads rows in
      if not (String.equal expected got) then
        Alcotest.failf
          "%s grid #%d resumed at epoch %d/%d diverged:\n%s\n%s\nvs\n%s"
          e.label g cut (Array.length rows)
          (Format.asprintf "%a" Qa.Grid.pp grid)
          expected got
    done
  done

(* Pooled drivers: the same equivalence with worker pools on both sides
   of the cut, across 1/2/8-domain pools (capped by the machine). *)
let pooled_battery (e : Testutil.variant) ~n_grids () =
  List.iter
    (fun domains ->
      Butterfly.Domain_pool.with_pool ~name:"recovery-test" ~domains
        (fun pool ->
          let rng = Random.State.make [| 0xeb0d; domains |] in
          for g = 1 to n_grids do
            let grid = Qa.Grid_gen.grid e.profile rng in
            let epochs = Qa.Grid.epochs grid in
            let rows = rows_of_epochs epochs in
            let threads = Butterfly.Epochs.threads epochs in
            let expected = e.batch_fp ~pool epochs in
            let sequential = e.batch_fp epochs in
            checks
              (Printf.sprintf "%s pooled(%d) == sequential" e.label domains)
              sequential expected;
            let cut = g * 7 mod (Array.length rows + 1) in
            let got = e.resumed_fp ~pool ~cut ~threads rows in
            checks
              (Printf.sprintf "%s pooled(%d) resumed at %d" e.label domains cut)
              expected got
          done))
    [ 1; 2; 8 ]

(* QCheck: random ragged grids (derived from the seed, so cases print and
   shrink as integers), random cut point, sequential engines. *)
let arb_cut_case =
  let print (seed, cut_bias) =
    Printf.sprintf "seed=%d cut_bias=%d" seed cut_bias
  in
  QCheck.make ~print
    ~shrink:QCheck.Shrink.(pair int int)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 64))

let grid_of_seed profile seed =
  Qa.Grid_gen.grid profile (Random.State.make [| 0xeb0e; seed |])

let resume_prop (e : Testutil.variant) (seed, cut_bias) =
  let grid = grid_of_seed e.profile seed in
  let epochs = Qa.Grid.epochs grid in
  let rows = rows_of_epochs epochs in
  let threads = Butterfly.Epochs.threads epochs in
  let cut = cut_bias mod (Array.length rows + 1) in
  String.equal (e.batch_fp epochs) (e.resumed_fp ~cut ~threads rows)

(* ------------------------------------------------------------------ *)
(* Golden digests: RaceCheck and TaintCheck (SC and relaxed) on fixed
   8-thread inputs at epoch sizes 8 and 64.  Each report fingerprint
   digest must be reproduced by the sequential, pooled(2) and
   resumed-at-a-cut runs, and the snapshot taken after the last row must
   hash to its recorded digest: any change to an engine's internals that
   moves a report, a statistic or a snapshot byte fails here.  The
   TaintCheck digests are meant to be re-recorded by a deliberate change
   to its resolution rule (the Theorem 6.2 fix), and only then. *)

let golden_racy ~every =
  Workloads.Synthetic.generate_racy ~counters:64 ~discipline:0.99 ~threads:8
    ~scale:240 ~seed:7 ()
  |> Workloads.Workload.Bundle.program
  |> Tracing.Program.with_heartbeats ~every
  |> Butterfly.Epochs.of_program

(* Sources, sanitizers, unop/binop chains and sinks over 128 shared
   words, so every thread's transfer functions reach into its wings. *)
let golden_taint ~every =
  let module I = Tracing.Instr in
  Tracing.Program.of_instrs
    (List.init 8 (fun t ->
         let rng = Random.State.make [| 7; t; 0x7a1 |] in
         let addr () = 0x1000 + (8 * Random.State.int rng 128) in
         List.init 320 (fun _ ->
             match Random.State.int rng 100 with
             | p when p < 5 -> I.Taint_source (addr ())
             | p when p < 10 -> I.Untaint (addr ())
             | p when p < 40 -> I.Assign_unop (addr (), addr ())
             | p when p < 70 -> I.Assign_binop (addr (), addr (), addr ())
             | p when p < 80 -> I.Assign_const (addr ())
             | p when p < 85 -> I.Jump_via (addr ())
             | p when p < 90 -> I.Syscall_arg (addr ())
             | _ -> I.Nop)))
  |> Tracing.Program.with_heartbeats ~every
  |> Butterfly.Epochs.of_program

let hex s = Digest.to_hex (Digest.string s)

(* (engine, input, epoch size, report digest, snapshot digest) *)
let golden_cases =
  let rc = Testutil.find_variant "racecheck"
  and sc = Testutil.find_variant "taintcheck[sc,two-phase]"
  and rx = Testutil.find_variant "taintcheck[relaxed,two-phase]" in
  [
    (rc, golden_racy, 8, "abfa5dba649743ea4fa06eea020d59a9",
      "1cb2555453f6325b19aec09fa55fdf88");
    (rc, golden_racy, 64, "262727a4852eccd5df6c873658bb7e05",
      "cacd49b18898d98fc1edece245d29456");
    (sc, golden_taint, 8, "7600a895ea98cd7838700753cad31669",
      "6ed49d85c601cdbd29ad23a93e2693ae");
    (sc, golden_taint, 64, "3724b98df5c95c9d97ef69df84321cd0",
      "81d0d3565b9101bc0e72c89aef2cfa7b");
    (rx, golden_taint, 8, "66e9a1f2cab515f7f5ac5105d95b3caa",
      "0810e09b8a4f25cb666c955bea6e83b6");
    (rx, golden_taint, 64, "6574647f1fe5f2aa91cc5f6168a12b5d",
      "f8784a846b572c41c3d2237de2a2796f");
  ]

let golden_case
    ((e : Testutil.variant), input, every, report_md5, snapshot_md5) =
  let name = Printf.sprintf "%s h=%d: golden digests" e.label every in
  Alcotest.test_case name `Slow (fun () ->
      let epochs = input ~every in
      let rows = rows_of_epochs epochs in
      let threads = Butterfly.Epochs.threads epochs in
      let cut = Array.length rows / 2 in
      Butterfly.Domain_pool.with_pool ~name:"golden" ~domains:2 (fun pool ->
          List.iter
            (fun (run, fp) -> checks (name ^ ": " ^ run) report_md5 (hex fp))
            [
              ("sequential", e.batch_fp epochs);
              ("pooled(2)", e.batch_fp ~pool epochs);
              ( Printf.sprintf "resumed at %d" cut,
                e.resumed_fp ~cut ~threads rows );
              ( Printf.sprintf "pooled(2) resumed at %d" cut,
                e.resumed_fp ~pool ~cut ~threads rows );
            ]);
      checks (name ^ ": final snapshot") snapshot_md5
        (hex (e.final_snapshot ~threads rows)))

(* ------------------------------------------------------------------ *)
(* Window-level checkpointing over the dataflow kernel: May and Must
   synthetic problems and the two wildcard-set problems, with cuts at
   arbitrary row boundaries.                                            *)

module May_problem = struct
  let name = "syn-may"

  module Set = Butterfly.Interval_set

  let flavour = `May

  let gen _id i =
    match Tracing.Instr.writes i with
    | Some x -> IS.range x (x + 2)
    | None -> IS.empty

  let kill _id i =
    List.fold_left
      (fun acc a -> IS.union acc (IS.range a (a + 1)))
      IS.empty (Tracing.Instr.reads i)
end

module Must_problem = struct
  include May_problem

  let name = "syn-must"
  let flavour = `Must
end

module SMay = Butterfly.Scheduler.Make (May_problem)
module SMust = Butterfly.Scheduler.Make (Must_problem)

let scheduler_resume_prop (module P : Butterfly.Dataflow.PROBLEM)
    (seed, cut_bias) =
  let grid = grid_of_seed Qa.Grid_gen.Mixed seed in
  let module S = Butterfly.Scheduler.Make (P) in
  let module A = Butterfly.Dataflow.Make (P) in
  let view_sig (v : A.instr_view) =
    Format.asprintf "%a|%a|%a|%a" Butterfly.Instr_id.pp v.id P.Set.pp
      (A.in_before v) P.Set.pp v.lsos_before P.Set.pp v.side_in
  in
  let epochs = Qa.Grid.epochs grid in
  let rows = rows_of_epochs epochs in
  let threads = Butterfly.Epochs.threads epochs in
  let run_full () =
    let log = ref [] in
    let s = S.create ~threads (fun v -> log := view_sig v :: !log) () in
    Array.iter (S.feed_row s) rows;
    (List.rev !log, S.finish s)
  in
  let run_cut cut =
    let log = ref [] in
    let on_instr v = log := view_sig v :: !log in
    let s = S.create ~threads on_instr () in
    Array.iteri (fun i row -> if i < cut then S.feed_row s row) rows;
    let s' = Result.get_ok (S.decode on_instr (S.encode s)) in
    Array.iteri (fun i row -> if i >= cut then S.feed_row s' row) rows;
    (List.rev !log, S.finish s')
  in
  let full_log, full_sos = run_full () in
  let cut = cut_bias mod (Array.length rows + 1) in
  let cut_log, cut_sos = run_cut cut in
  full_log = cut_log
  && Array.length full_sos = Array.length cut_sos
  && Array.for_all2 P.Set.equal full_sos cut_sos

(* ------------------------------------------------------------------ *)
(* The on-disk snapshot envelope, the checkpointed runner, and the
   crash-simulation harness built on them.                              *)

module Snapshot = Recovery.Snapshot
module Runner = Recovery.Runner

(* Runner drives over an epoch grid. *)
let run_grid ops ?checkpoint epochs =
  Runner.run ops ?checkpoint ~threads:(Butterfly.Epochs.threads epochs)
    (Butterfly.Epochs.iter_rows epochs)

let resume_grid ops ~path epochs =
  Runner.resume ops ~path ~threads:(Butterfly.Epochs.threads epochs)
    ~num_rows:(Butterfly.Epochs.num_epochs epochs)
    (Butterfly.Epochs.iter_rows epochs)

let all_tags =
  List.map (fun lg -> (lg, Qa.Differential.profile_of lg)) Snapshot.all
let with_snap_file f =
  let path = Filename.temp_file "bfly-test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let snapshot_roundtrip () =
  List.iteri
    (fun i (lg, _) ->
      let meta = { Snapshot.lifeguard = lg; next_epoch = 7; threads = 3 } in
      let data = Snapshot.encode meta "payload-bytes" in
      (* The header's first byte, after the magic and the version byte. *)
      check Alcotest.int "lifeguard byte, in Snapshot.all order" i
        (Char.code data.[String.length Snapshot.magic + 1]);
      match Snapshot.decode data with
      | Ok (m, p) ->
        check Alcotest.bool "meta" true (m = meta);
        checks "payload" "payload-bytes" p
      | Error m -> Alcotest.failf "snapshot decode: %s" m)
    all_tags;
  with_snap_file (fun path ->
      let meta =
        { Snapshot.lifeguard = Snapshot.Taintcheck; next_epoch = 0; threads = 1 }
      in
      let bytes = Snapshot.write_file ~path meta "" in
      check Alcotest.int "written size" bytes
        (String.length (Snapshot.encode meta ""));
      match Snapshot.read_file ~path with
      | Ok (m, p) ->
        check Alcotest.bool "file meta" true (m = meta);
        checks "file payload" "" p
      | Error m -> Alcotest.failf "snapshot read_file: %s" m)

let snapshot_rejections () =
  let data =
    Snapshot.encode
      { Snapshot.lifeguard = Snapshot.Initcheck; next_epoch = 2; threads = 2 }
      "xyz"
  in
  (* Every single-bit flip and every truncation must be rejected: the CRC
     trailer covers the whole envelope. *)
  for i = 0 to String.length data - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code data.[i] lxor (1 lsl bit)));
      match Snapshot.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip %d.%d accepted" i bit
    done
  done;
  for n = 0 to String.length data - 1 do
    match Snapshot.decode (String.sub data 0 n) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" n
  done;
  (* A well-framed envelope with a nonsense header is caught one layer
     up, with the metadata error. *)
  let w = Binio.W.create () in
  Binio.W.u8 w 9;
  Binio.W.varint w 0;
  Binio.W.varint w 1;
  Binio.W.string w "";
  (match
     Snapshot.decode
       (Binio.frame ~magic:Snapshot.magic ~version:Snapshot.version
          (Binio.W.contents w))
   with
  | Error m ->
    checks "bad tag" "corrupt checkpoint metadata: bad lifeguard tag 9" m
  | Ok _ -> Alcotest.fail "bad lifeguard tag accepted");
  match Snapshot.read_file ~path:"/nonexistent/ckpt.snap" with
  | Error m ->
    check Alcotest.bool "missing file error" true
      (String.length m > 0
      && String.sub m 0 22 = "cannot read checkpoint")
  | Ok _ -> Alcotest.fail "missing file accepted"

let runner_roundtrip () =
  List.iter
    (fun (tag, profile) ->
      let (Serve.Report.Entry e) = Serve.Report.find tag in
      let ops = e.ops ~relaxed:false () in
      let rng = Random.State.make [| 0xeb0f; 3 |] in
      for g = 1 to 6 do
        let grid = Qa.Grid_gen.grid profile rng in
        let epochs = Qa.Grid.epochs grid in
        with_snap_file (fun path ->
            let checkpoint = { Runner.every = 1; path } in
            let expected = ops.Runner.fp (run_grid ops epochs) in
            let ck = ops.Runner.fp (run_grid ops ~checkpoint epochs) in
            checks "checkpointing changes nothing" expected ck;
            match resume_grid ops ~path epochs with
            | Ok r -> checks "resumed from last snapshot" expected (ops.Runner.fp r)
            | Error m -> Alcotest.failf "resume (%s grid #%d): %s" (Snapshot.lifeguard_to_string tag) g m)
      done)
    all_tags

let runner_rejections () =
  let grid = grid_of_seed Qa.Grid_gen.Alloc 42 in
  let epochs = Qa.Grid.epochs grid in
  let threads = Butterfly.Epochs.threads epochs in
  let num = Butterfly.Epochs.num_epochs epochs in
  let aops = Runner.addr_ops () and iops = Runner.init_ops () in
  let expect_error name want = function
    | Error m -> checks name want m
    | Ok _ -> Alcotest.failf "%s: resume accepted" name
  in
  with_snap_file (fun path ->
      let st = aops.Runner.create ~threads in
      aops.Runner.feed st (rows_of_epochs epochs).(0);
      ignore (Runner.write_checkpoint aops ~path ~threads st);
      expect_error "wrong lifeguard" "checkpoint is for addrcheck, not initcheck"
        (resume_grid iops ~path epochs);
      expect_error "wrong lifeguard (racecheck)"
        "checkpoint is for addrcheck, not racecheck"
        (resume_grid (Runner.race_ops ()) ~path epochs);
      let payload = aops.Runner.enc st in
      ignore
        (Snapshot.write_file ~path
           { Snapshot.lifeguard = Snapshot.Addrcheck; next_epoch = 1;
             threads = threads + 1 }
           payload);
      expect_error "thread mismatch"
        (Printf.sprintf "checkpoint has %d threads, trace has %d" (threads + 1)
           threads)
        (resume_grid aops ~path epochs);
      ignore
        (Snapshot.write_file ~path
           { Snapshot.lifeguard = Snapshot.Addrcheck; next_epoch = num + 3;
             threads }
           payload);
      expect_error "ahead of trace"
        (Printf.sprintf
           "checkpoint is ahead of the trace: %d epochs folded, trace has %d"
           (num + 3) num)
        (resume_grid aops ~path epochs);
      ignore
        (Snapshot.write_file ~path
           { Snapshot.lifeguard = Snapshot.Addrcheck; next_epoch = 0; threads }
           payload);
      expect_error "header/payload skew"
        "corrupt checkpoint payload: header and payload disagree on epoch"
        (resume_grid aops ~path epochs);
      ignore
        (Snapshot.write_file ~path
           { Snapshot.lifeguard = Snapshot.Addrcheck; next_epoch = 1; threads }
           "garbage");
      (match resume_grid aops ~path epochs with
      | Error m ->
        check Alcotest.bool "corrupt payload" true
          (String.length m >= 26
          && String.sub m 0 26 = "corrupt checkpoint payload")
      | Ok _ -> Alcotest.fail "corrupt payload accepted"))

(* A payload whose thread count disagrees with its header, or whose
   engine disagrees with its own window, is a corrupt payload: revive
   reports it as such instead of handing back an engine whose next
   [feed_epoch] raises. *)
let thread_skew_case tag () =
  let (Serve.Report.Entry e) = Serve.Report.find tag in
  let ops = e.ops ~relaxed:false () in
  let lg = Snapshot.lifeguard_to_string tag in
  let revive ~header_threads payload st =
    with_snap_file (fun path ->
        ignore
          (Snapshot.write_file ~path
             { Snapshot.lifeguard = tag; next_epoch = ops.Runner.fed st;
               threads = header_threads }
             payload);
        match Runner.revive ops ~path ~threads:header_threads with
        | Ok _ -> Alcotest.failf "%s: thread skew accepted" lg
        | Error m -> m)
  in
  let row = [| [| Tracing.Instr.Malloc { base = 0x100; size = 8 } |]; [||] |] in
  (* Payload narrower than its header. *)
  let st = ops.Runner.create ~threads:2 in
  ops.Runner.feed st row;
  checks "header vs payload"
    "corrupt checkpoint payload: header and payload disagree on threads"
    (revive ~header_threads:3 (ops.Runner.enc st) st);
  (* The payload's own leading thread count patched from 2 to 3; the
     window's resident row still says 2. *)
  let st = ops.Runner.create ~threads:2 in
  ops.Runner.feed st row;
  let payload = Bytes.of_string (ops.Runner.enc st) in
  check Alcotest.int "leading thread count" 2 (Char.code (Bytes.get payload 0));
  Bytes.set payload 0 '\003';
  checks "engine vs window"
    (Printf.sprintf
       "corrupt checkpoint payload: %s state: instr row width mismatch" lg)
    (revive ~header_threads:3 (Bytes.to_string payload) st)

(* A payload whose cursor counters disagree — three rows fed but none
   processed, or two processed but no row resident — is a corrupt
   payload, not an engine whose next feed crashes. *)
let cursor_skew_case tag () =
  let (Serve.Report.Entry e) = Serve.Report.find tag in
  let ops = e.ops ~relaxed:false () in
  let lg = Snapshot.lifeguard_to_string tag in
  (* [threads, <params>, fed, processed, ...]: each one byte here. *)
  let at =
    1 + match tag with Snapshot.Addrcheck -> 1 | Snapshot.Taintcheck -> 2 | _ -> 0
  in
  let fresh = ops.Runner.enc (ops.Runner.create ~threads:2) in
  List.iter
    (fun (processed, why) ->
      let payload = Bytes.of_string fresh in
      check Alcotest.(pair int int) "fresh cursors" (0, 0)
        (Char.code (Bytes.get payload at), Char.code (Bytes.get payload (at + 1)));
      Bytes.set payload at '\003';
      Bytes.set payload (at + 1) (Char.chr processed);
      with_snap_file (fun path ->
          ignore
            (Snapshot.write_file ~path
               { Snapshot.lifeguard = tag; next_epoch = 3; threads = 2 }
               (Bytes.to_string payload));
          match Runner.revive ops ~path ~threads:2 with
          | Ok (st, _) ->
            ops.Runner.feed st [| [||]; [||] |];
            Alcotest.failf "%s: fed=3 processed=%d accepted" lg processed
          | Error m ->
            checks "cursor skew"
              (Printf.sprintf "corrupt checkpoint payload: %s state: %s" lg why)
              m))
    [
      (0, "processed epochs disagree with the rows fed");
      ( 2,
        (* The dataflow kernel's SOS history is read before the rows. *)
        match tag with
        | Snapshot.Addrcheck | Snapshot.Initcheck ->
          "SOS history disagrees with the cursors"
        | _ -> "resident rows disagree with the cursors" );
    ]

let crash_sim_battery () =
  List.iter
    (fun (tag, profile) ->
      let (Serve.Report.Entry e) = Serve.Report.find tag in
      let rng = Random.State.make [| 0xeb10; 5 |] in
      for g = 1 to 5 do
        let grid = Qa.Grid_gen.grid profile rng in
        let epochs = Qa.Grid.epochs grid in
        with_snap_file (fun path ->
            match
              Recovery.Crash_sim.run ~seed:g ~every:(1 + (g mod 2)) ~path
                (e.ops ~relaxed:false ()) epochs
            with
            | Error m -> Alcotest.failf "crash sim: %s" m
            | Ok o ->
              if not o.Recovery.Crash_sim.equal then
                Alcotest.failf "%s grid #%d: %a"
                  (Snapshot.lifeguard_to_string tag)
                  g Recovery.Crash_sim.pp_outcome o)
      done;
      (* A crash before the first checkpoint recovers by starting over. *)
      let grid = Qa.Grid_gen.grid profile rng in
      with_snap_file (fun path ->
          match
            Recovery.Crash_sim.run ~crash_at:0 ~every:1 ~path
              (e.ops ~relaxed:false ()) (Qa.Grid.epochs grid)
          with
          | Error m -> Alcotest.failf "crash sim at 0: %s" m
          | Ok o ->
            check Alcotest.int "no snapshot" 0 o.Recovery.Crash_sim.resumed_from;
            check Alcotest.bool "fresh-start recovery" true
              o.Recovery.Crash_sim.equal))
    all_tags

let qa_crash_checks () =
  List.iter
    (fun lg ->
      let grid = grid_of_seed (Qa.Differential.profile_of lg) 11 in
      match Qa.Differential.check_recovery ~seed:3 lg grid with
      | [] -> ()
      | ms ->
        Alcotest.failf "check_recovery flagged %d mismatches: %s"
          (List.length ms)
          (String.concat "; "
             (List.map (fun (m : Qa.Differential.mismatch) -> m.subject) ms)))
    Snapshot.all

(* ------------------------------------------------------------------ *)

let () =
  let qt = Testutil.qtest in
  Alcotest.run "recovery"
    [
      ( "binio",
        [
          Alcotest.test_case "primitive round-trips" `Quick roundtrip_ints;
          Alcotest.test_case "crc32 check vector" `Quick crc_vector;
          Alcotest.test_case "truncated reads raise Corrupt" `Quick
            truncated_reader;
          Alcotest.test_case "frame round-trips" `Quick frame_roundtrip;
          Alcotest.test_case "frame rejects magic/version/truncation/bit flips"
            `Quick frame_rejections;
        ] );
      ( "trace-codec",
        [
          Alcotest.test_case "binary round-trip (v2 framed)" `Quick
            codec_roundtrip;
          Alcotest.test_case "legacy BFLY1 traces still decode" `Quick
            codec_legacy_decode;
          Alcotest.test_case "corruption is rejected deterministically" `Quick
            codec_rejects_corruption;
        ] );
      ( "resume-equivalence",
        List.map
          (fun (e : Testutil.variant) ->
            Alcotest.test_case
              (Printf.sprintf "%s: every-epoch battery" e.label)
              `Slow
              (every_epoch_battery e ~n_grids:40))
          Testutil.variants
        @ List.map
            (fun (e : Testutil.variant) ->
              qt ~count:40
                (Printf.sprintf "%s: random grid, random cut" e.label)
                arb_cut_case (resume_prop e))
            Testutil.variants );
      ( "resume-pooled",
        List.map
          (fun (e : Testutil.variant) ->
            Alcotest.test_case
              (Printf.sprintf "%s: pooled 1/2/8 domains" e.label)
              `Slow
              (pooled_battery e ~n_grids:8))
          Testutil.variants );
      ("golden", List.map golden_case golden_cases);
      ( "scheduler-state",
        [
          qt ~count:80 "May problem: resume at any row == uninterrupted"
            arb_cut_case
            (scheduler_resume_prop (module May_problem));
          qt ~count:80 "Must problem: resume at any row == uninterrupted"
            arb_cut_case
            (scheduler_resume_prop (module Must_problem));
          (* Wildcard definition and expression sets through their codecs. *)
          qt ~count:40
            "reaching definitions: resume at any row == uninterrupted"
            arb_cut_case
            (scheduler_resume_prop (module Butterfly.Reaching_definitions.Problem));
          qt ~count:40
            "reaching expressions: resume at any row == uninterrupted"
            arb_cut_case
            (scheduler_resume_prop (module Butterfly.Reaching_expressions.Problem));
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "envelope round-trips (memory and disk)" `Quick
            snapshot_roundtrip;
          Alcotest.test_case "rejects bit flips/truncation/bad header" `Quick
            snapshot_rejections;
        ] );
      ( "runner",
        [
          Alcotest.test_case "checkpointed run + resume == straight run" `Slow
            runner_roundtrip;
          Alcotest.test_case "resume rejections are precise" `Quick
            runner_rejections;
        ]
        @ List.map
            (fun (tag, _) ->
              Alcotest.test_case
                (Printf.sprintf "%s: thread skew is a corrupt payload"
                   (Snapshot.lifeguard_to_string tag))
                `Quick (thread_skew_case tag))
            all_tags
        @ List.map
            (fun (tag, _) ->
              Alcotest.test_case
                (Printf.sprintf "%s: cursor skew is a corrupt payload"
                   (Snapshot.lifeguard_to_string tag))
                `Quick (cursor_skew_case tag))
            all_tags );
      ( "crash-sim",
        [
          Alcotest.test_case "seeded crashes recover byte-identically" `Slow
            crash_sim_battery;
          Alcotest.test_case "qa check_recovery finds nothing to flag" `Slow
            qa_crash_checks;
        ] );
    ]
