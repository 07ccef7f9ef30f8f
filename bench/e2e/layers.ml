(* Every call the benchmark makes into the butterfly libraries lives in
   this module, so an API rename touches one file.  Library entry points
   are called with their required arguments only: optional knobs keep
   their defaults, so the in-process path follows whatever the CLI's
   default path is. *)

module Instr = Tracing.Instr
module Program = Tracing.Program
module Epochs = Butterfly.Epochs
module Iset = Butterfly.Interval_set
module Runner = Recovery.Runner
module Snapshot = Recovery.Snapshot
module Wire = Serve.Wire
module J = Obs.Json

type lifeguard = Addrcheck | Initcheck | Taintcheck | Racecheck

let lifeguard_name = function
  | Addrcheck -> "addrcheck"
  | Initcheck -> "initcheck"
  | Taintcheck -> "taintcheck"
  | Racecheck -> "racecheck"

(* Monotonic clock, seconds. *)
let clock () = Int64.to_float (Obs.now_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Inputs *)

let kernel name ~threads ~scale ~seed =
  match Workloads.Registry.find name with
  | Some profile ->
    Workloads.Workload.generate_program profile ~threads ~scale ~seed
  | None -> invalid_arg ("unknown kernel " ^ name)

let racy ~threads ~scale ~seed =
  Workloads.Workload.Bundle.program
    (Workloads.Synthetic.generate_racy ~counters:64 ~discipline:0.99 ~threads
       ~scale ~seed ())

(* Each thread cycles malloc -> initialise -> read back -> free on 256-byte
   buffers at random slots of a [2^span_bits]-byte span.  Threads use
   disjoint slot stripes, so the fact tables hold a few live buffers spread
   thinly over the whole span.  Each thread's first buffer is read once
   before it is initialised and its last once after it is freed, so the
   AddrCheck and InitCheck output checks have real errors to find. *)
let sparse_heap ~threads ~scale ~span_bits ~seed =
  let buf = 256 and words = 32 in
  let slots = (1 lsl span_bits) / (buf * threads) in
  Program.of_instrs
    (List.init threads (fun t ->
         let rng = Random.State.make [| seed; t; span_bits |] in
         let acc = ref [] and n = ref 0 in
         let emit i =
           acc := i :: !acc;
           incr n
         in
         let base = ref 0 in
         while !n < scale do
           base :=
             0x10000 + (((Random.State.full_int rng slots * threads) + t) * buf);
           emit (Instr.Malloc { base = !base; size = buf });
           if !n = 1 then emit (Instr.Read !base);
           for w = 0 to words - 1 do
             emit (Instr.Assign_const (!base + (8 * w)))
           done;
           for w = 0 to words - 1 do
             emit (Instr.Read (!base + (8 * w)))
           done;
           emit (Instr.Free { base = !base; size = buf })
         done;
         emit (Instr.Read !base);
         List.rev !acc))

(* Taint sources, untaints, unop/binop chains and sinks over one shared
   4 KiB space (512 words): every thread's transfer functions reach into
   every other thread's wings. *)
let taint_flow ~threads ~scale ~seed =
  Program.of_instrs
    (List.init threads (fun t ->
         let rng = Random.State.make [| seed; t; 0x7a1 |] in
         let addr () = 0x1000 + (8 * Random.State.int rng 512) in
         List.init scale (fun _ ->
             match Random.State.int rng 100 with
             | p when p < 4 -> Instr.Taint_source (addr ())
             | p when p < 8 -> Instr.Untaint (addr ())
             | p when p < 38 -> Instr.Assign_unop (addr (), addr ())
             | p when p < 68 -> Instr.Assign_binop (addr (), addr (), addr ())
             | p when p < 78 -> Instr.Assign_const (addr ())
             | p when p < 82 -> Instr.Jump_via (addr ())
             | p when p < 85 -> Instr.Syscall_arg (addr ())
             | _ -> Instr.Nop)))

type program = Program.t

let encode = Tracing.Trace_codec.encode_binary
let instr_count = Program.total_instrs
let threads = Program.threads

(* ------------------------------------------------------------------ *)
(* The CLI's default path, one layer per function *)

(* The CLI's default [--epoch-size]. *)
let epoch_size = 64

let decode s =
  match Tracing.Trace_codec.decode_binary s with
  | Ok p -> p
  | Error m -> failwith ("decode: " ^ m)

let heartbeat p = Machine.Heartbeat.insert ~every:epoch_size p
let epochs p = Epochs.of_program p

type report =
  | A of Lifeguards.Addrcheck.report
  | I of Lifeguards.Initcheck.report
  | T of Lifeguards.Taintcheck.report
  | R of Lifeguards.Racecheck.report

let run ?pool lg e =
  match lg with
  | Addrcheck -> A (Lifeguards.Addrcheck.run ?pool e)
  | Initcheck -> I (Lifeguards.Initcheck.run ?pool e)
  | Taintcheck -> T (Lifeguards.Taintcheck.run ?pool e)
  | Racecheck -> R (Lifeguards.Racecheck.run ?pool e)

let render = function
  | A r -> Serve.Report.addrcheck r
  | I r -> Serve.Report.initcheck r
  | T r -> Serve.Report.taintcheck r
  | R r -> Serve.Report.racecheck r

(* What [--domains 2] asks for. *)
let pool_domains = 2

let pool_create () = Butterfly.Domain_pool.create ~domains:pool_domains ()
let pool_shutdown = Butterfly.Domain_pool.shutdown

(* ------------------------------------------------------------------ *)
(* Expectations, from references independent of the lifeguard under test
   (RaceCheck excepted: its brute-force reference is too slow, so the
   pooled CLI must reproduce the sequential driver byte for byte). *)

type expect =
  | Covers of { checked : int; locs : Iset.t }
      (** AddrCheck/InitCheck: the [checked] count, and bytes every report
          must flag *)
  | Sinks of int list  (** TaintCheck: sinks every report must flag *)
  | Exact of string  (** RaceCheck: the whole report line *)

(* The epoch-major, thread-minor serialization of the CLI's epoch grid:
   epoch l runs entirely before epoch l+1, which is a valid ordering. *)
let serialization p =
  let blocks = ref [] in
  Epochs.iter_blocks
    (fun b -> blocks := b.Butterfly.Block.instrs :: !blocks)
    (epochs (heartbeat p));
  List.concat_map Array.to_list (List.rev !blocks)

let expect lg p =
  match lg with
  | Addrcheck ->
    let instrs = serialization p in
    Covers
      {
        checked = List.length (List.filter Instr.is_memory_event instrs);
        locs =
          Lifeguards.Addrcheck_seq.(flagged_addresses (check instrs));
      }
  | Initcheck ->
    let r = Lifeguards.Initcheck_seq.check (serialization p) in
    Covers
      {
        checked = r.checked_reads;
        locs = Lifeguards.Initcheck_seq.flagged_addresses r;
      }
  | Taintcheck ->
    Sinks
      Lifeguards.Taintcheck_seq.(flagged_sinks (check (serialization p)))
  | Racecheck -> Exact (render (run Racecheck (epochs (heartbeat p))))

let field k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let int_field k j =
  match field k j with Some (J.Int n) -> Some n | _ -> None

(* Check one report line.  On success returns (confirmed, flagged): the
   flagged locations (bytes, or sinks) the sequential reference also flags
   on the serialization, and all flagged locations. *)
let check exp out =
  let out = String.trim out in
  let parsed k =
    match J.of_string out with
    | Error m -> Error ("unparsable report: " ^ m)
    | Ok j ->
      k j (match field "errors" j with Some (J.List l) -> l | _ -> [])
  in
  match exp with
  | Exact want ->
    if String.equal out want then Ok (0, 0)
    else Error "report differs from the sequential-driver report"
  | Covers { checked; locs } ->
    parsed (fun j errors ->
        let flagged =
          Iset.of_intervals
            (List.concat_map
               (fun e ->
                 match field "addrs" e with
                 | Some (J.List l) ->
                   List.filter_map
                     (function
                       | J.List [ J.Int lo; J.Int hi ] -> Some (lo, hi)
                       | _ -> None)
                     l
                 | _ -> [])
               errors)
        in
        match int_field "checked" j with
        | None -> Error "report has no checked count"
        | Some c when c <> checked ->
          Error (Printf.sprintf "checked %d, reference checked %d" c checked)
        | Some _ when not (Iset.subset locs flagged) ->
          Error
            (Printf.sprintf "missed %d bytes the reference flags"
               (Iset.cardinal (Iset.diff locs flagged)))
        | Some _ -> Ok (Iset.cardinal locs, Iset.cardinal flagged))
  | Sinks sinks ->
    parsed (fun _ errors ->
        let flagged =
          List.sort_uniq compare (List.filter_map (int_field "sink") errors)
        in
        match List.filter (fun s -> not (List.mem s flagged)) sinks with
        | [] -> Ok (List.length sinks, List.length flagged)
        | missed ->
          Error
            (Printf.sprintf "missed %d sinks the reference flags"
               (List.length missed)))

(* ------------------------------------------------------------------ *)
(* Tracing: timers around layer calls, and the program's own spans *)

(* [time name f] runs [f]; a traced timer also adds its duration to the
   busy time of layer [name]. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

let timing busy =
  {
    time =
      (fun name f ->
        let t0 = Obs.now_ns () in
        let x = f () in
        let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
        Hashtbl.replace busy name
          (dt +. Option.value (Hashtbl.find_opt busy name) ~default:0.);
        x);
  }

type snapshot = Obs.Snapshot.t

let with_memory_sink f =
  let sink = Obs.Sink.memory () in
  let x = Obs.with_sink sink f in
  (x, Obs.Sink.snapshot sink)

(* Metrics summed over every label set. *)
let fold_metric snap name f init =
  List.fold_left
    (fun acc (e : Obs.Snapshot.entry) ->
      if String.equal e.name name then f acc e.value else acc)
    init snap

let counter snap name =
  fold_metric snap name
    (fun acc -> function Obs.Snapshot.Counter n -> acc + n | _ -> acc)
    0

let span_ms snap name =
  fold_metric snap name
    (fun acc -> function
      | Obs.Snapshot.Histogram h -> acc +. (h.sum /. 1e6)
      | _ -> acc)
    0.

(* ------------------------------------------------------------------ *)
(* Serving: the client side of the frame protocol, and the daemon's
   per-session work replayed in-process *)

let snapshot_lifeguard = function
  | Addrcheck -> Snapshot.Addrcheck
  | Initcheck -> Snapshot.Initcheck
  | Taintcheck -> Snapshot.Taintcheck
  | Racecheck -> Snapshot.Racecheck

(* The daemon's checkpoint interval in the serve workload. *)
let checkpoint_every = 8

(* The driver and state fields carry the client subcommand's defaults. *)
let hello_frame ~tenant lg ~threads =
  Wire.encode
    (Wire.Hello
       {
         tenant;
         lifeguard = snapshot_lifeguard lg;
         driver = `Sequential;
         state = `Functional;
         relaxed = false;
         threads;
       })

type rows = Instr.t array array array

let session_rows p = Runner.rows_of (epochs (heartbeat p))

(* One DATA frame per epoch row, then FIN — what [butterfly_cli client]
   sends. *)
let session_body rows =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun row -> Wire.encode (Wire.Data (Serve.Client.chunk_of_row row)))
          rows)
    @ [ Wire.encode Wire.Fin ])

type reader = Wire.Reader.t

let reader () = Wire.Reader.create ()

let feed_reader r buf ~len =
  Wire.Reader.feed r (Bytes.unsafe_to_string buf) ~pos:0 ~len

type reply = Pending | Hello_ok of int | Report of string | Failed of string

let next_reply r =
  match Wire.Reader.next r with
  | Ok None -> Pending
  | Ok (Some (Wire.Hello_ok { resumed_from })) -> Hello_ok resumed_from
  | Ok (Some (Wire.Report s)) -> Report s
  | Ok (Some (Wire.Error m)) -> Failed m
  | Ok (Some f) -> Failed (Format.asprintf "unexpected frame: %a" Wire.pp f)
  | Error m -> Failed m

let status ~socket = Serve.Client.status ~socket ()

(* A counter from a STATUS reply's Prometheus text; 0 when absent. *)
let status_counter status name =
  let prom = String.map (function '.' -> '_' | c -> c) name ^ " " in
  match J.of_string status with
  | Ok j -> (
    match field "prometheus" j with
    | Some (J.String text) ->
      List.fold_left
        (fun acc line ->
          if String.starts_with ~prefix:prom line then
            let v = String.sub line (String.length prom)
                (String.length line - String.length prom) in
            acc + Option.value (int_of_string_opt (String.trim v)) ~default:0
          else acc)
        0
        (String.split_on_char '\n' text)
    | _ -> 0)
  | Error _ -> 0

(* The daemon's side of one session, in-process: frame reassembly over the
   byte stream (read in 64 KiB slices, as the daemon reads), cursor decode
   of each DATA chunk, one engine feed per row with a snapshot every
   [checkpoint_every] rows, finish and render.  Returns the report line
   and the snapshot sizes. *)
let replay_session (t : timer) ~dir ~tenant lg ~threads body =
  let chunks =
    t.time "serve.reassembly" (fun () ->
        let r = reader () in
        let n = String.length body in
        let acc = ref [] in
        let rec drain () =
          match Wire.Reader.next r with
          | Ok None -> ()
          | Ok (Some (Wire.Data c)) ->
            acc := c :: !acc;
            drain ()
          | Ok (Some Wire.Fin) -> drain ()
          | Ok (Some f) -> failwith (Format.asprintf "replay: %a" Wire.pp f)
          | Error m -> failwith ("replay: " ^ m)
        in
        let rec go pos =
          if pos < n then begin
            let len = min 65536 (n - pos) in
            Wire.Reader.feed r body ~pos ~len;
            drain ();
            go (pos + len)
          end
        in
        go 0;
        List.rev !acc)
  in
  let rows_of chunk =
    match Tracing.Trace_codec.Cursor.of_string chunk with
    | Error m -> failwith ("replay: " ^ m)
    | Ok c ->
      let acc = ref [] in
      Tracing.Trace_codec.Cursor.iter_rows c (fun row -> acc := row :: !acc);
      List.rev !acc
  in
  let go : type s r. (s, r) Runner.ops -> (r -> string) -> string * int list =
   fun ops render ->
    let st = t.time "lifeguards.run" (fun () -> ops.create ~threads) in
    let sizes = ref [] in
    List.iter
      (fun chunk ->
        let rows = t.time "tracing.decode" (fun () -> rows_of chunk) in
        List.iter
          (fun row ->
            t.time "lifeguards.run" (fun () -> ops.feed st row);
            if ops.fed st mod checkpoint_every = 0 then begin
              let payload = t.time "recovery.encode" (fun () -> ops.enc st) in
              let meta =
                { Snapshot.lifeguard = ops.tag; next_epoch = ops.fed st;
                  threads }
              in
              let path = Snapshot.session_path ~dir ~tenant ops.tag in
              sizes :=
                t.time "recovery.write" (fun () ->
                    Snapshot.write_file ~path meta payload)
                :: !sizes
            end)
          rows)
      chunks;
    let r = t.time "lifeguards.run" (fun () -> ops.finish st) in
    (t.time "serve.report_render" (fun () -> render r), !sizes)
  in
  match lg with
  | Addrcheck -> go (Runner.addr_ops ()) Serve.Report.addrcheck
  | Initcheck -> go (Runner.init_ops ()) Serve.Report.initcheck
  | Taintcheck -> go (Runner.taint_ops ()) Serve.Report.taintcheck
  | Racecheck -> go (Runner.race_ops ()) Serve.Report.racecheck
