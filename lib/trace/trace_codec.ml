let encode_event buf tid e =
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let a = Addr.to_string in
  (match e with
  | Event.Heartbeat -> addf "%d heartbeat" tid
  | Event.Instr i -> (
    match i with
    | Instr.Assign_const x -> addf "%d assign %s" tid (a x)
    | Instr.Assign_unop (x, s) -> addf "%d unop %s %s" tid (a x) (a s)
    | Instr.Assign_binop (x, s1, s2) ->
      addf "%d binop %s %s %s" tid (a x) (a s1) (a s2)
    | Instr.Read s -> addf "%d read %s" tid (a s)
    | Instr.Malloc { base; size } -> addf "%d malloc %s %d" tid (a base) size
    | Instr.Free { base; size } -> addf "%d free %s %d" tid (a base) size
    | Instr.Taint_source x -> addf "%d taint %s" tid (a x)
    | Instr.Untaint x -> addf "%d untaint %s" tid (a x)
    | Instr.Jump_via x -> addf "%d jump %s" tid (a x)
    | Instr.Syscall_arg x -> addf "%d sysarg %s" tid (a x)
    | Instr.Lock m -> addf "%d lock %s" tid (a m)
    | Instr.Unlock m -> addf "%d unlock %s" tid (a m)
    | Instr.Fork u -> addf "%d fork %d" tid u
    | Instr.Join u -> addf "%d join %d" tid u
    | Instr.Nop -> addf "%d nop" tid));
  Buffer.add_char buf '\n'

let encode p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "threads %d\n" (Program.threads p));
  for t = 0 to Program.threads p - 1 do
    Array.iter (encode_event buf t) (Trace.events (Program.trace p t))
  done;
  Buffer.contents buf

let encode_to_channel oc p = output_string oc (encode p)

let parse_line lineno line =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> Ok None
  | [ "threads"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Some (n - 1, `Declare))
    | _ -> fail "bad thread count %S" n)
  | tid_s :: rest -> (
    match int_of_string_opt tid_s with
    | None -> fail "bad thread id %S" tid_s
    | Some tid when tid < 0 -> fail "negative thread id"
    | Some tid -> (
      let addr w =
        match Addr.of_string w with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "line %d: bad address %S" lineno w)
      in
      let int w =
        match int_of_string_opt w with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "line %d: bad integer %S" lineno w)
      in
      let ( let* ) = Result.bind in
      let instr i = Ok (Some (tid, `Event (Event.Instr i))) in
      match rest with
      | [ "heartbeat" ] -> Ok (Some (tid, `Event Event.Heartbeat))
      | [ "nop" ] -> instr Instr.Nop
      | [ "assign"; x ] ->
        let* x = addr x in
        instr (Instr.Assign_const x)
      | [ "unop"; x; s ] ->
        let* x = addr x in
        let* s = addr s in
        instr (Instr.Assign_unop (x, s))
      | [ "binop"; x; s1; s2 ] ->
        let* x = addr x in
        let* s1 = addr s1 in
        let* s2 = addr s2 in
        instr (Instr.Assign_binop (x, s1, s2))
      | [ "read"; s ] ->
        let* s = addr s in
        instr (Instr.Read s)
      | [ "malloc"; b; sz ] ->
        let* b = addr b in
        let* sz = int sz in
        instr (Instr.Malloc { base = b; size = sz })
      | [ "free"; b; sz ] ->
        let* b = addr b in
        let* sz = int sz in
        instr (Instr.Free { base = b; size = sz })
      | [ "taint"; x ] ->
        let* x = addr x in
        instr (Instr.Taint_source x)
      | [ "untaint"; x ] ->
        let* x = addr x in
        instr (Instr.Untaint x)
      | [ "jump"; x ] ->
        let* x = addr x in
        instr (Instr.Jump_via x)
      | [ "sysarg"; x ] ->
        let* x = addr x in
        instr (Instr.Syscall_arg x)
      | [ "lock"; m ] ->
        let* m = addr m in
        instr (Instr.Lock m)
      | [ "unlock"; m ] ->
        let* m = addr m in
        instr (Instr.Unlock m)
      | [ "fork"; u ] ->
        let* u = int u in
        if u < 0 then fail "negative fork target" else instr (Instr.Fork u)
      | [ "join"; u ] ->
        let* u = int u in
        if u < 0 then fail "negative join target" else instr (Instr.Join u)
      | mnemonic :: _ -> fail "unknown mnemonic %S" mnemonic
      | [] -> fail "missing mnemonic"))

let decode s =
  let lines = String.split_on_char '\n' s in
  let table : (int, Event.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let max_tid = ref (-1) in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest ->
      let line = String.trim line in
      if line = "" || String.length line > 0 && line.[0] = '#' then
        go (lineno + 1) rest
      else (
        match parse_line lineno line with
        | Error _ as e -> e
        | Ok None -> go (lineno + 1) rest
        | Ok (Some (tid, `Declare)) ->
          max_tid := max !max_tid tid;
          go (lineno + 1) rest
        | Ok (Some (tid, `Event ev)) ->
          max_tid := max !max_tid tid;
          let cell =
            match Hashtbl.find_opt table tid with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add table tid c;
              c
          in
          cell := ev :: !cell;
          go (lineno + 1) rest)
  in
  match go 1 lines with
  | Error m -> Error m
  | Ok () ->
    if !max_tid < 0 then Error "empty trace: no events"
    else
      let ts =
        List.init (!max_tid + 1) (fun t ->
            match Hashtbl.find_opt table t with
            | None -> Trace.of_events []
            | Some c -> Trace.of_events (List.rev !c))
      in
      Ok (Program.make ts)

let decode_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> decode s
  | exception Sys_error m -> Error m

let roundtrip_exn p =
  match decode (encode p) with
  | Ok p' -> p'
  | Error m -> failwith ("Trace_codec.roundtrip_exn: " ^ m)

(* ------------------------------------------------------------------ *)
(* Binary format.

   Current layout (format version 2) is a {!Binio} envelope: magic
   "BFLY", one version byte, the payload (varint thread count, then per
   thread a varint event count followed by events), and a CRC32 trailer.
   The legacy version-1 layout — the literal prefix "BFLY1" with the
   same payload and no checksum — is still decoded for old trace files,
   but never emitted. *)

let binary_magic = "BFLY"
let binary_version = 2
let legacy_magic = "BFLY1"

let instr_opcode = function
  | Instr.Nop -> 1
  | Instr.Assign_const _ -> 2
  | Instr.Assign_unop _ -> 3
  | Instr.Assign_binop _ -> 4
  | Instr.Read _ -> 5
  | Instr.Malloc _ -> 6
  | Instr.Free _ -> 7
  | Instr.Taint_source _ -> 8
  | Instr.Untaint _ -> 9
  | Instr.Jump_via _ -> 10
  | Instr.Syscall_arg _ -> 11
  (* Opcodes 12-15 are new in format version 2; legacy BFLY1 traces never
     contain them, so the legacy decode path is unaffected. *)
  | Instr.Lock _ -> 12
  | Instr.Unlock _ -> 13
  | Instr.Fork _ -> 14
  | Instr.Join _ -> 15

let put_instr w i =
  Binio.W.u8 w (instr_opcode i);
  match i with
  | Instr.Nop -> ()
  | Instr.Assign_const x | Instr.Read x | Instr.Taint_source x
  | Instr.Untaint x | Instr.Jump_via x | Instr.Syscall_arg x | Instr.Lock x
  | Instr.Unlock x | Instr.Fork x | Instr.Join x ->
    Binio.W.varint w x
  | Instr.Assign_unop (x, a) ->
    Binio.W.varint w x;
    Binio.W.varint w a
  | Instr.Assign_binop (x, a, b) ->
    Binio.W.varint w x;
    Binio.W.varint w a;
    Binio.W.varint w b
  | Instr.Malloc { base; size } | Instr.Free { base; size } ->
    Binio.W.varint w base;
    Binio.W.varint w size

let put_event w = function
  | Event.Heartbeat -> Binio.W.u8 w 0
  | Event.Instr i -> put_instr w i

(* How many varint operands follow each instruction opcode
   ([put_instr]'s layout); opcode 0, the heartbeat, is no instruction.
   Both the decoder and the cursor's scan read operands by this table,
   so the two cannot disagree on where an event ends. *)
let operand_counts = [| 0; 0; 1; 2; 3; 1; 2; 2; 1; 1; 1; 1; 1; 1; 1; 1 |]

let operand_count op =
  if op < 1 || op >= Array.length operand_counts then
    raise (Binio.R.Corrupt (Printf.sprintf "unknown opcode %d" op));
  operand_counts.(op)

let instr_of_opcode r op =
  let n = operand_count op in
  let x = if n > 0 then Binio.R.varint r else 0 in
  let a = if n > 1 then Binio.R.varint r else 0 in
  let b = if n > 2 then Binio.R.varint r else 0 in
  match op with
  | 1 -> Instr.Nop
  | 2 -> Instr.Assign_const x
  | 3 -> Instr.Assign_unop (x, a)
  | 4 -> Instr.Assign_binop (x, a, b)
  | 5 -> Instr.Read x
  | 6 -> Instr.Malloc { base = x; size = a }
  | 7 -> Instr.Free { base = x; size = a }
  | 8 -> Instr.Taint_source x
  | 9 -> Instr.Untaint x
  | 10 -> Instr.Jump_via x
  | 11 -> Instr.Syscall_arg x
  | 12 -> Instr.Lock x
  | 13 -> Instr.Unlock x
  | 14 -> Instr.Fork x
  | 15 -> Instr.Join x
  | _ -> assert false (* [operand_count] rejected [op] *)

let read_instr r =
  match Binio.R.u8 r with
  | 0 -> raise (Binio.R.Corrupt "heartbeat opcode where an instruction was expected")
  | op -> instr_of_opcode r op

let read_event r =
  match Binio.R.u8 r with
  | 0 -> Event.Heartbeat
  | op -> Event.Instr (instr_of_opcode r op)

let put_payload w p =
  Binio.W.varint w (Program.threads p);
  for t = 0 to Program.threads p - 1 do
    let events = Trace.events (Program.trace p t) in
    Binio.W.array w put_event events
  done

let encode_binary p =
  let w = Binio.W.create () in
  put_payload w p;
  Binio.frame ~magic:binary_magic ~version:binary_version (Binio.W.contents w)

let read_payload r =
  let threads = Binio.R.varint r in
  if threads <= 0 || threads > 4096 then
    raise (Binio.R.Corrupt "bad thread count");
  let ts =
    List.init threads (fun _ ->
        let n = Binio.R.varint r in
        if n > 100_000_000 then raise (Binio.R.Corrupt "bad event count");
        Trace.of_events (List.init n (fun _ -> read_event r)))
  in
  Binio.R.expect_end r;
  Program.make ts

let decode_binary s =
  let mlen = String.length legacy_magic in
  if String.length s >= mlen && String.sub s 0 mlen = legacy_magic then
    (* Legacy unchecksummed traces: payload starts right after "BFLY1". *)
    match
      read_payload
        (Binio.R.of_string (String.sub s mlen (String.length s - mlen)))
    with
    | p -> Ok p
    | exception Binio.R.Corrupt m -> Error m
  else
    match Binio.unframe ~magic:binary_magic ~version:binary_version s with
    | Error _ as e -> e
    | Ok payload -> (
      match read_payload (Binio.R.of_string payload) with
      | p -> Ok p
      | exception Binio.R.Corrupt m -> Error m)

let binary_roundtrip_exn p =
  match decode_binary (encode_binary p) with
  | Ok p2 -> p2
  | Error m -> failwith ("Trace_codec.binary_roundtrip_exn: " ^ m)

(* ------------------------------------------------------------------ *)
(* Zero-copy cursor over a binary trace buffer.

   [decode_binary] materializes per-thread event lists and a [Program.t]
   before any analysis can start — for a multi-hundred-MB trace that is
   a second full-size copy of the input plus a list cell per event.  The
   cursor instead validates the envelope in place ({!Binio.unframe_span},
   no [String.sub] of the payload), records each thread's event-region
   offsets in a single validating scan, and then replays instruction
   rows one epoch at a time through in-place {!Binio.R.of_substring}
   readers — the only per-event allocation is the [Instr.t] values of
   the row currently in flight.

   Acceptance is exactly [decode_binary]'s: same envelope checks, same
   payload limits, same error messages (the fuzz suites quantify over
   both decoders).  Row semantics are exactly the batch pipeline's:
   [iter_rows ?every] yields the rows of
   [Epochs.of_program (with_heartbeats ~every ...)] — see the .mli. *)

module Cursor = struct
  type t = {
    buf : string;
    regions : (int * int) array; (* per-thread (pos, len) into [buf] *)
    counts : int array; (* events per thread *)
    instr_counts : int array; (* instructions per thread *)
    hb_counts : int array; (* heartbeats per thread *)
  }

  let threads c = Array.length c.regions
  let instr_count c = Array.fold_left ( + ) 0 c.instr_counts

  (* One validating pass over the payload: every event's opcode is
     checked and its operands read past by [operand_count] (so a bad
     opcode or truncated operand is rejected here, like [read_payload]),
     but nothing is built: only the region bounds and counts are kept. *)
  let scan_payload buf ~pos ~len =
    let r = Binio.R.of_substring buf ~pos ~len in
    let threads = Binio.R.varint r in
    if threads <= 0 || threads > 4096 then
      raise (Binio.R.Corrupt "bad thread count");
    let regions = Array.make threads (0, 0) in
    let counts = Array.make threads 0 in
    let instr_counts = Array.make threads 0 in
    let hb_counts = Array.make threads 0 in
    for t = 0 to threads - 1 do
      let n = Binio.R.varint r in
      if n > 100_000_000 then raise (Binio.R.Corrupt "bad event count");
      let start = Binio.R.pos r in
      for _ = 1 to n do
        match Binio.R.u8 r with
        | 0 -> hb_counts.(t) <- hb_counts.(t) + 1
        | op ->
          for _ = 1 to operand_count op do
            ignore (Binio.R.varint r : int)
          done;
          instr_counts.(t) <- instr_counts.(t) + 1
      done;
      regions.(t) <- (start, Binio.R.pos r - start);
      counts.(t) <- n
    done;
    Binio.R.expect_end r;
    { buf; regions; counts; instr_counts; hb_counts }

  let of_string s =
    let llen = String.length legacy_magic in
    if String.length s >= llen && String.sub s 0 llen = legacy_magic then
      (* Legacy unchecksummed traces: payload starts right after "BFLY1". *)
      match scan_payload s ~pos:llen ~len:(String.length s - llen) with
      | c -> Ok c
      | exception Binio.R.Corrupt m -> Error m
    else
      match
        Binio.unframe_span ~magic:binary_magic ~version:binary_version s
      with
      | Error m -> Error m
      | Ok (pos, len) -> (
        match scan_payload s ~pos ~len with
        | c -> Ok c
        | exception Binio.R.Corrupt m -> Error m)

  (* Blocks per thread under each chunking mode, mirroring the batch
     pipeline exactly: embedded heartbeats give [Trace.blocks]'s k+1
     blocks for k separators; [~every:h] gives [with_heartbeats]'s
     floor(n/h)+1 (trailing empty block when h divides n, one empty
     block for an empty thread). *)
  let blocks_per_thread ?every c =
    match every with
    | None -> Array.map (fun k -> k + 1) c.hb_counts
    | Some h ->
      if h <= 0 then invalid_arg "Trace_codec.Cursor: every must be > 0";
      Array.map (fun n -> (n / h) + 1) c.instr_counts

  let num_rows ?every c = Array.fold_left max 1 (blocks_per_thread ?every c)

  let iter_rows ?every c f =
    let threads = threads c in
    let blocks_t = blocks_per_thread ?every c in
    let num_l = Array.fold_left max 1 blocks_t in
    let readers =
      Array.init threads (fun t ->
          let pos, len = c.regions.(t) in
          Binio.R.of_substring c.buf ~pos ~len)
    in
    let left = Array.copy c.counts in
    let next_block t =
      let r = readers.(t) in
      let acc = ref [] in
      (match every with
      | None ->
        let stop = ref false in
        while (not !stop) && left.(t) > 0 do
          left.(t) <- left.(t) - 1;
          match read_event r with
          | Event.Heartbeat -> stop := true
          | Event.Instr i -> acc := i :: !acc
        done
      | Some h ->
        (* Embedded heartbeats are stripped and the instruction stream
           re-chunked, mirroring [Trace.with_heartbeats]. *)
        let k = ref 0 in
        while !k < h && left.(t) > 0 do
          left.(t) <- left.(t) - 1;
          match read_event r with
          | Event.Heartbeat -> ()
          | Event.Instr i ->
            incr k;
            acc := i :: !acc
        done);
      Array.of_list (List.rev !acc)
    in
    (* Shorter threads are padded with empty blocks, mirroring
       [Epochs.of_blocks]. *)
    for l = 0 to num_l - 1 do
      f
        (Array.init threads (fun t ->
             if l < blocks_t.(t) then next_block t else [||]))
    done
end
