(* Tracing library: instruction footprints, heartbeat splitting, and codec
   round-trips. *)

module I = Tracing.Instr

let addr = 0x10

let footprint_tests =
  [
    Alcotest.test_case "reads/writes" `Quick (fun () ->
        Alcotest.(check (list int)) "binop reads" [ 1; 2 ]
          (I.reads (I.Assign_binop (0, 1, 2)));
        Alcotest.(check (list int)) "binop same-operand dedup" [ 1 ]
          (I.reads (I.Assign_binop (0, 1, 1)));
        Alcotest.(check (option int)) "write dst" (Some 0)
          (I.writes (I.Assign_binop (0, 1, 2)));
        Alcotest.(check (option int)) "read has no write" None
          (I.writes (I.Read 5)));
    Alcotest.test_case "accesses" `Quick (fun () ->
        Alcotest.(check (list int)) "dst first" [ 0; 1; 2 ]
          (I.accesses (I.Assign_binop (0, 1, 2)));
        Alcotest.(check (list int)) "jump reads target" [ 7 ]
          (I.accesses (I.Jump_via 7));
        Alcotest.(check (list int)) "malloc accesses nothing" []
          (I.accesses (I.Malloc { base = 0; size = 8 })));
    Alcotest.test_case "alloc_effect" `Quick (fun () ->
        (match I.alloc_effect (I.Malloc { base = 4; size = 8 }) with
        | `Alloc (4, 8) -> ()
        | _ -> Alcotest.fail "malloc");
        match I.alloc_effect (I.Free { base = 4; size = 8 }) with
        | `Free (4, 8) -> ()
        | _ -> Alcotest.fail "free");
    Alcotest.test_case "is_memory_event" `Quick (fun () ->
        Testutil.checkb "nop" false (I.is_memory_event I.Nop);
        Testutil.checkb "malloc" true (I.is_memory_event (I.Malloc { base = 0; size = 1 }));
        Testutil.checkb "assign" true (I.is_memory_event (I.Assign_const addr)));
    Alcotest.test_case "is_memory_event = a non-empty footprint or heap management"
      `Quick (fun () ->
        (* One instruction of every constructor, plus binops whose
           operands (and destination) coincide. *)
        let every =
          [
            I.Assign_const 1; I.Assign_unop (1, 2); I.Assign_binop (1, 2, 3);
            I.Assign_binop (1, 2, 2); I.Assign_binop (2, 2, 2); I.Read 1;
            I.Malloc { base = 0; size = 8 }; I.Free { base = 0; size = 8 };
            I.Taint_source 1; I.Untaint 1; I.Jump_via 1; I.Syscall_arg 1;
            I.Lock 1; I.Unlock 1; I.Fork 1; I.Join 1; I.Nop;
          ]
        in
        List.iter
          (fun i ->
            Testutil.checkb (I.to_string i)
              (I.accesses i <> [] || I.alloc_effect i <> `None)
              (I.is_memory_event i))
          every);
    Alcotest.test_case "taint_sink" `Quick (fun () ->
        Alcotest.(check (option int)) "jump" (Some 3) (I.taint_sink (I.Jump_via 3));
        Alcotest.(check (option int)) "sysarg" (Some 4)
          (I.taint_sink (I.Syscall_arg 4));
        Alcotest.(check (option int)) "assign" None
          (I.taint_sink (I.Assign_const 3)));
  ]

let trace_tests =
  [
    Alcotest.test_case "with_heartbeats splits evenly" `Quick (fun () ->
        let t =
          Tracing.Trace.of_instrs (List.init 7 (fun _ -> I.Nop))
          |> Tracing.Trace.with_heartbeats ~every:3
        in
        let blocks = Tracing.Trace.blocks t in
        Alcotest.(check (list int)) "block sizes" [ 3; 3; 1 ]
          (List.map Array.length blocks));
    Alcotest.test_case "with_heartbeats exact multiple" `Quick (fun () ->
        let t =
          Tracing.Trace.of_instrs (List.init 6 (fun _ -> I.Nop))
          |> Tracing.Trace.with_heartbeats ~every:3
        in
        Alcotest.(check (list int)) "trailing empty block" [ 3; 3; 0 ]
          (List.map Array.length (Tracing.Trace.blocks t)));
    Alcotest.test_case "re-heartbeat strips old markers" `Quick (fun () ->
        let t =
          Tracing.Trace.of_instrs (List.init 6 (fun _ -> I.Nop))
          |> Tracing.Trace.with_heartbeats ~every:2
          |> Tracing.Trace.with_heartbeats ~every:5
        in
        Alcotest.(check (list int)) "sizes" [ 5; 1 ]
          (List.map Array.length (Tracing.Trace.blocks t)));
    Alcotest.test_case "instr_count ignores heartbeats" `Quick (fun () ->
        let t =
          Tracing.Trace.of_instrs (List.init 9 (fun _ -> I.Nop))
          |> Tracing.Trace.with_heartbeats ~every:2
        in
        Alcotest.(check int) "count" 9 (Tracing.Trace.instr_count t));
    Alcotest.test_case "memory_event_count" `Quick (fun () ->
        let t =
          Tracing.Trace.of_instrs [ I.Nop; I.Read 1; I.Assign_const 2; I.Nop ]
        in
        Alcotest.(check int) "count" 2 (Tracing.Trace.memory_event_count t));
    Alcotest.test_case "program accessors" `Quick (fun () ->
        let p =
          Tracing.Program.of_instrs [ [ I.Nop; I.Read 1 ]; [ I.Assign_const 2 ] ]
        in
        Alcotest.(check int) "threads" 2 (Tracing.Program.threads p);
        Alcotest.(check int) "total" 3 (Tracing.Program.total_instrs p));
  ]

(* Codec round-trip over random programs. *)
let gen_instr : I.t QCheck.Gen.t =
  let open QCheck.Gen in
  let addr = int_bound 0xff in
  let size = int_range 1 64 in
  oneof
    [
      map (fun x -> I.Assign_const x) addr;
      map2 (fun x a -> I.Assign_unop (x, a)) addr addr;
      map3 (fun x a b -> I.Assign_binop (x, a, b)) addr addr addr;
      map (fun a -> I.Read a) addr;
      map2 (fun base size -> I.Malloc { base; size }) addr size;
      map2 (fun base size -> I.Free { base; size }) addr size;
      map (fun x -> I.Taint_source x) addr;
      map (fun x -> I.Untaint x) addr;
      map (fun x -> I.Jump_via x) addr;
      map (fun x -> I.Syscall_arg x) addr;
      return I.Nop;
    ]

let gen_program =
  let open QCheck.Gen in
  let* threads = int_range 1 4 in
  let* heartbeat = int_range 1 5 in
  let thread = list_size (int_bound 20) gen_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss |> Tracing.Program.with_heartbeats ~every:heartbeat

let arb_program =
  QCheck.make ~print:(fun p -> Tracing.Trace_codec.encode p) gen_program

let programs_equal a b =
  Tracing.Program.threads a = Tracing.Program.threads b
  && List.for_all
       (fun t ->
         let ea = Tracing.Trace.events (Tracing.Program.trace a t) in
         let eb = Tracing.Trace.events (Tracing.Program.trace b t) in
         Array.length ea = Array.length eb
         && Array.for_all2 Tracing.Event.equal ea eb)
       (List.init (Tracing.Program.threads a) Fun.id)

let codec_tests =
  [
    Testutil.qtest ~count:200 "codec round-trip" arb_program (fun p ->
        programs_equal p (Tracing.Trace_codec.roundtrip_exn p));
    Alcotest.test_case "decode rejects garbage" `Quick (fun () ->
        (match Tracing.Trace_codec.decode "0 frobnicate 0x10" with
        | Error msg ->
          Testutil.checkb "mentions line" true
            (String.length msg > 0 && String.sub msg 0 4 = "line")
        | Ok _ -> Alcotest.fail "expected parse error");
        match Tracing.Trace_codec.decode "x nop" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected tid error");
    Alcotest.test_case "decode skips comments and blanks" `Quick (fun () ->
        match Tracing.Trace_codec.decode "# hi\n\n0 nop\n  \n0 heartbeat\n" with
        | Ok p ->
          Alcotest.(check int) "events" 2
            (Array.length (Tracing.Trace.events (Tracing.Program.trace p 0)))
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "decode empty is an error" `Quick (fun () ->
        match Tracing.Trace_codec.decode "# nothing\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
  ]

let fuzz_tests =
  [
    Testutil.qtest ~count:200 "binary codec round-trip" arb_program (fun p ->
        programs_equal p (Tracing.Trace_codec.binary_roundtrip_exn p));
    Alcotest.test_case "binary is denser than text" `Quick (fun () ->
        let p =
          Tracing.Program.of_instrs
            [ List.init 500 (fun k -> I.Assign_binop (k, k + 1, k + 2)) ]
        in
        Testutil.checkb "smaller" true
          (String.length (Tracing.Trace_codec.encode_binary p)
          < String.length (Tracing.Trace_codec.encode p) / 3));
    Testutil.qtest ~count:300 "text decoder never raises on garbage"
      QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.printable)
      (fun s ->
        match Tracing.Trace_codec.decode s with
        | Ok _ | Error _ -> true);
    Testutil.qtest ~count:300 "binary decoder never raises on garbage"
      QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)
      (fun s ->
        match Tracing.Trace_codec.decode_binary s with
        | Ok _ | Error _ -> true);
    Testutil.qtest ~count:100 "binary decoder survives truncation"
      arb_program (fun p ->
        let b = Tracing.Trace_codec.encode_binary p in
        let cut = String.sub b 0 (String.length b / 2) in
        match Tracing.Trace_codec.decode_binary cut with
        | Ok _ | Error _ -> true);
  ]

(* Taint-instruction traffic through the codec: the parallel TaintCheck
   work made these variants load-bearing on the CLI path, so they get
   their own fuzz corpus (text and binary), plus the truncation
   guarantee [load_program] relies on: a cut trace is a clean [Error],
   never an escaping exception and never a silent [Ok]. *)
let gen_taint_program =
  let open QCheck.Gen in
  let* threads = int_range 1 4 in
  let* heartbeat = int_range 1 5 in
  let thread = list_size (int_bound 20) (Testutil.gen_taint_instr ~n_addrs:256) in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss
  |> Tracing.Program.with_heartbeats ~every:heartbeat

let arb_taint_program =
  QCheck.make ~print:(fun p -> Tracing.Trace_codec.encode p) gen_taint_program

(* One fixed program exercising every taint-relevant variant. *)
let taint_exemplar =
  Tracing.Program.of_instrs
    [
      [ I.Taint_source 1; I.Assign_unop (2, 1); I.Syscall_arg 2 ];
      [ I.Untaint 3; I.Assign_binop (4, 1, 3); I.Jump_via 4; I.Assign_const 1 ];
    ]
  |> Tracing.Program.with_heartbeats ~every:2

let taint_codec_tests =
  [
    Testutil.qtest ~count:200 "text round-trip (taint variants)"
      arb_taint_program (fun p ->
        programs_equal p (Tracing.Trace_codec.roundtrip_exn p));
    Testutil.qtest ~count:200 "binary round-trip (taint variants)"
      arb_taint_program (fun p ->
        programs_equal p (Tracing.Trace_codec.binary_roundtrip_exn p));
    Alcotest.test_case "every strict binary prefix is a clean error" `Quick
      (fun () ->
        (* Success requires consuming the entire buffer, so any strict
           prefix must surface as [Error] — the contract the CLI's
           [load_program] error path depends on. *)
        let b = Tracing.Trace_codec.encode_binary taint_exemplar in
        for cut = 0 to String.length b - 1 do
          match Tracing.Trace_codec.decode_binary (String.sub b 0 cut) with
          | Error m -> Testutil.checkb "non-empty message" true (m <> "")
          | Ok _ -> Alcotest.failf "prefix of %d bytes decoded Ok" cut
        done);
    Testutil.qtest ~count:150 "random truncation is a clean error"
      arb_taint_program (fun p ->
        let b = Tracing.Trace_codec.encode_binary p in
        (* Derive the cut point from the payload so the property stays
           seed-reproducible. *)
        let cut = Hashtbl.hash b mod String.length b in
        match Tracing.Trace_codec.decode_binary (String.sub b 0 cut) with
        | Error _ -> true
        | Ok _ -> false);
  ]

(* Synchronization events through the codec: Lock/Unlock/Fork/Join are
   new in binary format version 2 (opcodes 12-15) and in the text
   mnemonic set, and they feed RaceCheck's happens-before relation — a
   silently dropped or misparsed sync op turns into missed races, so
   the four kinds get the same corpus treatment as the taint variants:
   round-trips, truncation, bit flips, the legacy-decode pin and the
   cursor-ingest equivalence below. *)
let gen_sync_program =
  let open QCheck.Gen in
  let sync_instr =
    let addr = int_bound 0xff in
    frequency
      [
        (2, map (fun m -> I.Lock m) addr);
        (2, map (fun m -> I.Unlock m) addr);
        (2, map (fun u -> I.Fork u) (int_bound 4));
        (2, map (fun u -> I.Join u) (int_bound 4));
        (2, map (fun x -> I.Assign_const x) addr);
        (1, map (fun a -> I.Read a) addr);
        (1, return I.Nop);
      ]
  in
  let* threads = int_range 1 4 in
  let* heartbeat = int_range 1 5 in
  let thread = list_size (int_bound 20) sync_instr in
  let+ iss = list_repeat threads thread in
  Tracing.Program.of_instrs iss
  |> Tracing.Program.with_heartbeats ~every:heartbeat

let arb_sync_program =
  QCheck.make ~print:(fun p -> Tracing.Trace_codec.encode p) gen_sync_program

(* One fixed program exercising all four sync kinds. *)
let sync_exemplar =
  Tracing.Program.of_instrs
    [
      [ I.Lock 1; I.Assign_const 2; I.Unlock 1; I.Fork 1 ];
      [ I.Lock 1; I.Read 2; I.Unlock 1; I.Join 0 ];
    ]
  |> Tracing.Program.with_heartbeats ~every:2

let sync_codec_tests =
  [
    Testutil.qtest ~count:200 "text round-trip (sync events)" arb_sync_program
      (fun p -> programs_equal p (Tracing.Trace_codec.roundtrip_exn p));
    Testutil.qtest ~count:200 "binary round-trip (sync events)"
      arb_sync_program (fun p ->
        programs_equal p (Tracing.Trace_codec.binary_roundtrip_exn p));
    Alcotest.test_case "text mnemonics are pinned" `Quick (fun () ->
        let enc = Tracing.Trace_codec.encode sync_exemplar in
        List.iter
          (fun needle ->
            Testutil.checkb needle true (Astring.String.is_infix ~affix:needle enc))
          [ "0 lock 0x1"; "0 unlock 0x1"; "0 fork 1"; "1 join 0" ]);
    Alcotest.test_case "negative fork/join targets are parse errors" `Quick
      (fun () ->
        List.iter
          (fun line ->
            match Tracing.Trace_codec.decode line with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S accepted" line)
          [ "0 fork -1"; "0 join -2" ]);
    Alcotest.test_case "every strict binary prefix is a clean error" `Quick
      (fun () ->
        let b = Tracing.Trace_codec.encode_binary sync_exemplar in
        for cut = 0 to String.length b - 1 do
          match Tracing.Trace_codec.decode_binary (String.sub b 0 cut) with
          | Error m -> Testutil.checkb "non-empty message" true (m <> "")
          | Ok _ -> Alcotest.failf "prefix of %d bytes decoded Ok" cut
        done);
    Alcotest.test_case "every single-bit flip is rejected" `Quick (fun () ->
        let b = Tracing.Trace_codec.encode_binary sync_exemplar in
        for pos = 0 to String.length b - 1 do
          for bit = 0 to 7 do
            if pos <> 4 then (
              let flipped = Bytes.of_string b in
              Bytes.set flipped pos
                (Char.chr (Char.code b.[pos] lxor (1 lsl bit)));
              match
                Tracing.Trace_codec.decode_binary (Bytes.to_string flipped)
              with
              | Ok _ -> Alcotest.failf "bit flip %d.%d accepted" pos bit
              | Error _ -> ())
          done
        done);
    Alcotest.test_case "legacy BFLY1 payloads with sync opcodes decode" `Quick
      (fun () ->
        (* The version-2 opcodes are not gated out of the legacy reader:
           an old consumer never wrote them, but a BFLY1 payload that
           contains them is decoded rather than rejected. *)
        let b = Tracing.Trace_codec.encode_binary sync_exemplar in
        let legacy = "BFLY1" ^ String.sub b 5 (String.length b - 9) in
        match Tracing.Trace_codec.decode_binary legacy with
        | Error m -> Alcotest.failf "legacy decode: %s" m
        | Ok p -> Testutil.checkb "round-trip" true (programs_equal sync_exemplar p));
  ]

(* The zero-copy cursor against the materializing decoder: same rows,
   same accept/reject verdict, on well-formed traces, every strict
   prefix, every single-bit corruption, and the legacy BFLY1 framing.
   The cursor feeds the lifeguard engines every binary trace directly
   (through [Row_source]), so "identical to decode_binary +
   Epochs.of_program" is the contract that keeps that path honest. *)
module Cursor = Tracing.Trace_codec.Cursor

let rows_of_cursor ?every c =
  let acc = ref [] in
  Cursor.iter_rows ?every c (fun row -> acc := Array.map Array.copy row :: !acc);
  List.rev !acc

let rows_match_epochs rows e =
  let threads = Butterfly.Epochs.threads e in
  List.length rows = Butterfly.Epochs.num_epochs e
  && List.for_all2
       (fun row l ->
         Array.length row = threads
         && List.for_all
              (fun t ->
                row.(t)
                = (Butterfly.Epochs.block e ~epoch:l ~tid:t)
                    .Butterfly.Block.instrs)
              (List.init threads Fun.id))
       rows
       (List.init (List.length rows) Fun.id)

let cursor_of_program p =
  match Cursor.of_string (Tracing.Trace_codec.encode_binary p) with
  | Ok c -> c
  | Error m -> failwith ("cursor: " ^ m)

let accepts = function Ok _ -> true | Error _ -> false

let cursor_tests =
  [
    Testutil.qtest ~count:200 "rows = Epochs.of_program (embedded heartbeats)"
      arb_program (fun p ->
        let c = cursor_of_program p in
        let rows = rows_of_cursor c in
        Cursor.num_rows c = List.length rows
        && Cursor.threads c = Tracing.Program.threads p
        && rows_match_epochs rows (Butterfly.Epochs.of_program p));
    Testutil.qtest ~count:200 "rows = Epochs.of_program (re-chunked)"
      (QCheck.make
         ~print:(fun (p, h) ->
           Printf.sprintf "every=%d\n%s" h (Tracing.Trace_codec.encode p))
         QCheck.Gen.(pair gen_program (int_range 1 5)))
      (fun (p, h) ->
        let c = cursor_of_program p in
        let rows = rows_of_cursor ~every:h c in
        Cursor.num_rows ~every:h c = List.length rows
        && rows_match_epochs rows
             (Butterfly.Epochs.of_program
                (Tracing.Program.with_heartbeats ~every:h p)));
    Testutil.qtest ~count:300 "cursor and decoder agree on garbage"
      QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)
      (fun s ->
        accepts (Cursor.of_string s)
        = accepts (Tracing.Trace_codec.decode_binary s));
    Alcotest.test_case "every strict prefix rejected, like the decoder"
      `Quick (fun () ->
        let b = Tracing.Trace_codec.encode_binary taint_exemplar in
        for cut = 0 to String.length b - 1 do
          let prefix = String.sub b 0 cut in
          (match Cursor.of_string prefix with
          | Error m -> Testutil.checkb "non-empty message" true (m <> "")
          | Ok _ -> Alcotest.failf "cursor accepted a %d-byte prefix" cut);
          Testutil.checkb "decoder agrees" false
            (accepts (Tracing.Trace_codec.decode_binary prefix))
        done);
    Alcotest.test_case "every single-bit flip rejected, like the decoder"
      `Quick (fun () ->
        (* The envelope CRC covers every byte, so any one-bit corruption
           must be a clean rejection from both decoders. *)
        let b = Tracing.Trace_codec.encode_binary taint_exemplar in
        let flipped = Bytes.of_string b in
        for pos = 0 to String.length b - 1 do
          for bit = 0 to 7 do
            Bytes.set flipped pos
              (Char.chr (Char.code b.[pos] lxor (1 lsl bit)));
            let s = Bytes.to_string flipped in
            Testutil.checkb "cursor rejects" false (accepts (Cursor.of_string s));
            Testutil.checkb "decoder rejects" false
              (accepts (Tracing.Trace_codec.decode_binary s));
            Bytes.set flipped pos b.[pos]
          done
        done);
    Testutil.qtest ~count:150 "cursor-ingest equivalence on sync traffic"
      (QCheck.make
         ~print:(fun (p, h) ->
           Printf.sprintf "every=%d\n%s" h (Tracing.Trace_codec.encode p))
         QCheck.Gen.(pair gen_sync_program (int_range 1 5)))
      (fun (p, h) ->
        (* Lock/fork/join rows the cursor delivers must be the rows of
           the decoded program's epoch grid. *)
        let c = cursor_of_program p in
        rows_match_epochs (rows_of_cursor c) (Butterfly.Epochs.of_program p)
        && rows_match_epochs
             (rows_of_cursor ~every:h c)
             (Butterfly.Epochs.of_program
                (Tracing.Program.with_heartbeats ~every:h p)));
    Alcotest.test_case "bad opcode and truncated operand: decoder's errors"
      `Quick (fun () ->
        (* Well-framed payloads (the CRC holds) whose one event is bad:
           the cursor's scan skips operands without decoding them, and
           must still reject exactly where and how the decoder does. *)
        let framed events =
          let module W = Tracing.Binio.W in
          let w = W.create () in
          W.varint w 1;
          W.varint w (List.length events);
          List.iter (fun bytes -> List.iter (W.u8 w) bytes) events;
          Tracing.Binio.frame ~magic:Tracing.Trace_codec.binary_magic
            ~version:Tracing.Trace_codec.binary_version (W.contents w)
        in
        let error s =
          match Cursor.of_string s with
          | Ok _ -> Alcotest.fail "cursor accepted a bad event"
          | Error m -> m
        in
        let decoder_error s =
          match Tracing.Trace_codec.decode_binary s with
          | Ok _ -> Alcotest.fail "decoder accepted a bad event"
          | Error m -> m
        in
        List.iter
          (fun (what, events, expect) ->
            let s = framed events in
            Alcotest.(check string) (what ^ ": cursor") expect (error s);
            Alcotest.(check string) (what ^ ": decoder") expect
              (decoder_error s))
          [
            ("unknown opcode", [ [ 5; 7 ]; [ 99; 1 ] ], "unknown opcode 99");
            ("opcode past the table", [ [ 16 ] ], "unknown opcode 16");
            (* malloc base, then the payload ends before its size *)
            ("truncated operand", [ [ 0 ]; [ 6; 0x90; 0x01 ] ],
             "truncated input");
            (* binop's third operand cut inside its varint *)
            ("operand cut mid-varint", [ [ 4; 1; 2; 0x80 ] ],
             "truncated input");
          ]);
    Alcotest.test_case "legacy BFLY1 traces walk identically" `Quick
      (fun () ->
        (* Same payload behind the unchecksummed legacy magic: the cursor
           must accept it and yield the same rows as the v2 framing. *)
        let b = Tracing.Trace_codec.encode_binary taint_exemplar in
        let legacy = "BFLY1" ^ String.sub b 5 (String.length b - 9) in
        match Cursor.of_string legacy with
        | Error m -> Alcotest.failf "legacy cursor: %s" m
        | Ok c ->
          Testutil.checkb "rows match" true
            (rows_match_epochs (rows_of_cursor c)
               (Butterfly.Epochs.of_program taint_exemplar));
          Testutil.checkb "re-chunked rows match" true
            (rows_match_epochs
               (rows_of_cursor ~every:3 c)
               (Butterfly.Epochs.of_program
                  (Tracing.Program.with_heartbeats ~every:3 taint_exemplar))));
  ]

(* The one trace loader: both encodings of a program yield the rows of
   its epoch grid, and malformed input gets the matching decoder's
   error. *)
module Row_source = Tracing.Row_source

let source_rows ?every s =
  match Row_source.of_string s with
  | Error m -> failwith ("row source: " ^ m)
  | Ok src ->
    let acc = ref [] in
    Row_source.iter_rows ?every src (fun row -> acc := row :: !acc);
    (src, List.rev !acc)

let row_source_prop ~every p =
  let grid =
    Butterfly.Epochs.of_program
      (match every with
      | None -> p
      | Some h -> Tracing.Program.with_heartbeats ~every:h p)
  in
  List.for_all
    (fun encoded ->
      let src, rows = source_rows ?every encoded in
      Row_source.threads src = Tracing.Program.threads p
      && Row_source.num_rows ?every src = List.length rows
      && rows_match_epochs rows grid)
    [ Tracing.Trace_codec.encode p; Tracing.Trace_codec.encode_binary p ]

let arb_program_every gen =
  QCheck.make
    ~print:(fun (p, h) ->
      Printf.sprintf "every=%d\n%s" h (Tracing.Trace_codec.encode p))
    QCheck.Gen.(pair gen (int_range 1 5))

let row_source_tests =
  [
    Testutil.qtest ~count:200 "text and binary rows = Epochs.of_program"
      (arb_program_every gen_program) (fun (p, h) ->
        row_source_prop ~every:None p && row_source_prop ~every:(Some h) p);
    Testutil.qtest ~count:100 "text and binary rows agree on sync traffic"
      (arb_program_every gen_sync_program) (fun (p, h) ->
        row_source_prop ~every:None p && row_source_prop ~every:(Some h) p);
    Testutil.qtest ~count:300 "errors are the matching decoder's"
      QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)
      (fun s ->
        let want =
          if String.starts_with ~prefix:Tracing.Trace_codec.binary_magic s
          then Tracing.Trace_codec.decode_binary s
          else Tracing.Trace_codec.decode s
        in
        match (Row_source.of_string s, want) with
        | Error m, Error m' -> String.equal m m'
        | Ok _, Ok _ -> true
        | _ -> false);
    Alcotest.test_case "a truncated binary trace keeps the decoder's error"
      `Quick (fun () ->
        let b = Tracing.Trace_codec.encode_binary taint_exemplar in
        let cut = String.sub b 0 (String.length b - 1) in
        match (Row_source.of_string cut, Tracing.Trace_codec.decode_binary cut) with
        | Error m, Error m' -> Alcotest.(check string) "message" m' m
        | _ -> Alcotest.fail "a truncated trace was accepted");
  ]

let () =
  Alcotest.run "tracing"
    [
      ("instr", footprint_tests);
      ("trace", trace_tests);
      ("codec", codec_tests);
      ("codec_binary", fuzz_tests);
      ("codec_taint", taint_codec_tests);
      ("codec_sync", sync_codec_tests);
      ("cursor", cursor_tests);
      ("row_source", row_source_tests);
    ]
