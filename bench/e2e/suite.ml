(* The five workloads: inputs made from the seed, set-up, the timed
   end-to-end phase against the shipped CLI, and the traced in-process
   rounds that attribute its time to layers. *)

module L = Layers

(* ------------------------------------------------------------------ *)
(* Metrics *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening of the median *)
}

let m ?(bound = 0.) name unit better = { name; unit; better; bound }

(* Measured with tracing off, against the shipped binary. *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "throughput_minstr_s" "Minstr/s" Higher ~bound:0.25;
    m "latency_best_ms" "ms" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.1;
    m "cpu_cores_used" "cores" Lower ~bound:0.1;
  ]

(* From the traced run; a layer that a workload does not exercise reads 0. *)
let per_layer =
  [
    m "e2e.latency_p50_ms" "ms" Lower;
    m "e2e.latency_p90_ms" "ms" Lower;
    m "tracing.decode_ms" "ms" Lower;
    m "tracing.decode_share" "ratio" Lower;
    m "tracing.mb_per_s" "MB/s" Higher;
    m "machine.heartbeat_ms" "ms" Lower;
    m "butterfly.epochs_build_ms" "ms" Lower;
    m "butterfly.pass1_ms" "ms" Lower;
    m "butterfly.meet_ms" "ms" Lower;
    m "butterfly.lsos_ms" "ms" Lower;
    m "butterfly.pass2_ms" "ms" Lower;
    m "butterfly.epochs" "count" Lower;
    m "butterfly.pass2_instrs" "count" Lower;
    m "lifeguards.run_ms" "ms" Lower;
    m "lifeguards.run_share" "ratio" Lower;
    m "lifeguards.checks" "count" Lower;
    m "lifeguards.flags" "count" Lower;
    m "lifeguards.isolation_ms" "ms" Lower;
    m "lifeguards.phase2_rechecks" "count" Lower;
    m "racecheck.hb_suppressed" "count" Higher;
    m "racecheck.lock_suppressed" "count" Higher;
    m "lifeguards.confirmed_ratio" "ratio" Higher;
    m "pool.create_ms" "ms" Lower;
    m "pool.shutdown_ms" "ms" Lower;
    m "pool.task_ms" "ms" Lower;
    m "pool.submit_wait_ms" "ms" Lower;
    m "pool.utilization" "ratio" Higher;
    m "pool.speedup_vs_seq" "ratio" Higher;
    m "state.arena_bytes" "bytes" Lower;
    m "state.arena_grows" "count" Lower;
    m "recovery.encode_ms" "ms" Lower;
    m "recovery.write_ms" "ms" Lower;
    m "recovery.snapshot_kb" "KB" Lower;
    m "recovery.checkpoints" "count" Lower;
    m "serve.report_render_ms" "ms" Lower;
    m "serve.wire_encode_ms" "ms" Lower;
    m "serve.reassembly_ms" "ms" Lower;
    m "serve.hello_rtt_p50_ms" "ms" Lower;
    m "serve.data_send_p50_ms" "ms" Lower;
    m "serve.service_p50_ms" "ms" Lower;
    m "serve.wait_share" "ratio" Lower;
    m "serve.latency_p99_ms" "ms" Lower;
    m "serve.fin_to_report_p50_ms" "ms" Lower;
    m "serve.fin_to_report_p99_ms" "ms" Lower;
    m "serve.frames" "count" Higher;
    m "serve.rows" "count" Higher;
    m "serve.errors" "count" Lower;
    m "process.outside_share" "ratio" Lower;
    m "process.unattributed_share" "ratio" Lower;
    m "obs.trace_overhead_pct" "%" Lower;
  ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

type size = Full | Smoke

type spec = {
  label : string;
  program : L.program;
  lifeguards : L.lifeguard list;
  pooled : bool;  (** run with [--domains 2] *)
}

type kind = Batch | Serve

type workload = { name : string; kind : kind; specs : size -> seed:int -> spec list }

let kernels = [ "ocean"; "lu"; "fft"; "barnes"; "fmm"; "blackscholes" ]

(* FMM is left out of serving: its TaintCheck session costs about 1.5 s,
   a hundred times any other, and would turn the workload into a second
   TaintCheck benchmark instead of one of the serving layers. *)
let serve_kernels = List.filter (fun k -> k <> "fmm") kernels
let scale size ~full ~smoke = match size with Full -> full | Smoke -> smoke

let on_kernels names ~threads ~full ~smoke lifeguards size ~seed =
  List.mapi
    (fun i k ->
      {
        label = k;
        program =
          L.kernel k ~threads ~scale:(scale size ~full ~smoke)
            ~seed:((seed * 100) + i);
        lifeguards;
        pooled = false;
      })
    names

(* Why each workload exists is recorded in BENCHMARK.json and the README. *)
let workloads =
  [
    {
      name = "addr-apps";
      kind = Batch;
      specs =
        on_kernels kernels ~threads:4 ~full:16000 ~smoke:600 [ L.Addrcheck ];
    };
    {
      name = "init-apps";
      kind = Batch;
      specs =
        on_kernels [ "lu"; "fft"; "blackscholes"; "ocean" ] ~threads:4
          ~full:1500 ~smoke:200 [ L.Initcheck ];
    };
    {
      name = "sparse-heap";
      kind = Batch;
      specs =
        (fun size ~seed ->
          List.map
            (fun span_bits ->
              {
                label = Printf.sprintf "span-2^%d" span_bits;
                program =
                  L.sparse_heap ~threads:4
                    ~scale:(scale size ~full:16000 ~smoke:600)
                    ~span_bits ~seed;
                lifeguards = [ L.Addrcheck; L.Initcheck ];
                pooled = false;
              })
            [ 24; 32; 40 ]);
    };
    {
      name = "sync-pooled";
      kind = Batch;
      specs =
        (fun size ~seed ->
          let mk label lg program = { label; program; lifeguards = [ lg ]; pooled = true } in
          List.concat_map
            (fun i ->
              let seed = (seed * 100) + i in
              [
                mk (Printf.sprintf "taint-%d" i) L.Taintcheck
                  (L.taint_flow ~threads:8
                     ~scale:(scale size ~full:8000 ~smoke:300) ~seed);
                mk (Printf.sprintf "racy-%d" i) L.Racecheck
                  (L.racy ~threads:8 ~scale:(scale size ~full:4000 ~smoke:200)
                     ~seed);
              ])
            [ 0; 1 ]);
    };
    {
      name = "serve-mixed";
      kind = Serve;
      specs =
        on_kernels serve_kernels ~threads:4 ~full:2000 ~smoke:300
          [ L.Addrcheck; L.Taintcheck; L.Racecheck ];
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* ------------------------------------------------------------------ *)
(* Set-up *)

type input = {
  label : string;
  lg : L.lifeguard;
  pooled : bool;
  threads : int;
  instrs : int;  (** before heartbeat insertion *)
  bytes : string;  (** the encoded trace *)
  file : string;  (** where the CLI reads it *)
  rows : L.rows;  (** serve: the epoch rows the client streams *)
  body : string;  (** serve: those rows as DATA frames, then FIN *)
  expect : L.expect;
}

(* Inputs in round order.  A serve round rotates the lifeguard every
   session and the kernel every third. *)
let make_inputs ~dir size ~seed w =
  List.concat
    (List.mapi
       (fun i (spec : spec) ->
         let bytes = L.encode spec.program in
         let file = Filename.concat dir (Printf.sprintf "%d.bfly" i) in
         Out_channel.with_open_bin file (fun oc ->
             Out_channel.output_string oc bytes);
         let rows = if w.kind = Serve then L.session_rows spec.program else [||] in
         let body = if w.kind = Serve then L.session_body rows else "" in
         List.map
           (fun lg ->
             {
               label = spec.label;
               lg;
               pooled = spec.pooled;
               threads = L.threads spec.program;
               instrs = L.instr_count spec.program;
               bytes;
               file;
               rows;
               body;
               expect = L.expect lg spec.program;
             })
           spec.lifeguards)
       (w.specs size ~seed))
  |> Array.of_list

(* Start the daemon and wait until STATUS answers. *)
let boot ~cli ~dir =
  let socket = Filename.concat dir "d.sock" in
  let pid =
    Proc.spawn cli
      [ "serve"; "--socket"; socket; "--state-dir"; Filename.concat dir "state";
        "--checkpoint-every"; string_of_int L.checkpoint_every ]
  in
  let deadline = L.clock () +. 20. in
  let rec wait () =
    match L.status ~socket with
    | Ok _ -> (pid, socket)
    | Error _ when L.clock () < deadline -> wait ()
    | Error m ->
      Proc.stop pid;
      failwith ("daemon did not answer STATUS: " ^ m)
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Failure accounting *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  outputs : (int * string, int) Hashtbl.t;
      (** (input, report line) -> times seen; checked by {!settle} *)
}

let fail tally (inp : input) msg =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "e2e: %s %s: %s\n%!" (L.lifeguard_name inp.lg) inp.label msg

let record tally inputs i result =
  tally.attempted <- tally.attempted + 1;
  match result with
  | Error msg -> fail tally inputs.(i) msg
  | Ok out ->
    Hashtbl.replace tally.outputs (i, out)
      (1 + Option.value (Hashtbl.find_opt tally.outputs (i, out)) ~default:0)

(* Check every distinct report line once; a failed check counts once per
   job or session that produced the line. *)
let settle tally inputs =
  Hashtbl.iter
    (fun (i, out) n ->
      match L.check inputs.(i).expect out with
      | Ok _ -> ()
      | Error msg ->
        fail tally inputs.(i) msg;
        tally.failed <- tally.failed + n - 1)
    tally.outputs;
  Hashtbl.reset tally.outputs

(* ------------------------------------------------------------------ *)
(* End-to-end phase *)

type e2e = {
  wall : float;
  rounds : int;
  round_walls : float list;  (** s *)
  latencies : (int * float) list;  (** (input, s) per job or session *)
  instrs : int;  (** monitored by jobs/sessions that completed *)
  peak_rss_kb : int;
  cpu_s : float;  (** monitor CPU over the timed phase *)
  sessions : Serve_load.timing list;
  status : string;  (** serve: the STATUS reply after the timed phase *)
}

let cli_args inp =
  [ L.lifeguard_name inp.lg; inp.file; "--json" ]
  @ if inp.pooled then [ "--domains"; string_of_int L.pool_domains ] else []

let batch_job ~cli tally inputs i =
  let r = Proc.run_job cli (cli_args inputs.(i)) in
  record tally inputs i
    (if r.timed_out then Error (Printf.sprintf "timed out after %.0f s" Proc.timeout_s)
     else if r.code <> 0 then Error (Printf.sprintf "exit code %d" r.code)
     else Ok r.out);
  r

(* Closed loop, one job at a time, whole rounds until [seconds] pass. *)
let e2e_batch ~cli ~warmup ~seconds tally inputs =
  if warmup then
    Array.iteri (fun i _ -> ignore (batch_job ~cli tally inputs i)) inputs;
  let t0 = L.clock () in
  let lat = ref [] and walls = ref [] and instrs = ref 0 in
  let rss = ref 0 and cpu = ref 0. in
  while !walls = [] || L.clock () -. t0 < seconds do
    let r0 = L.clock () in
    Array.iteri
      (fun i (inp : input) ->
        let r = batch_job ~cli tally inputs i in
        lat := (i, r.latency_s) :: !lat;
        if r.code = 0 && not r.timed_out then instrs := !instrs + inp.instrs;
        rss := max !rss r.maxrss_kb;
        cpu := !cpu +. r.cpu_s)
      inputs;
    walls := (L.clock () -. r0) :: !walls
  done;
  {
    wall = L.clock () -. t0;
    rounds = List.length !walls;
    round_walls = !walls;
    latencies = !lat;
    instrs = !instrs;
    peak_rss_kb = !rss;
    cpu_s = !cpu;
    sessions = [];
    status = "";
  }

(* Closed loop over two connections, whole rounds until [seconds] pass.
   Every session gets a fresh tenant id: the daemon keeps a reported
   session's periodic snapshot, so a reused id would revive it. *)
let e2e_serve ~pid ~socket ~warmup ~seconds tally inputs =
  let n = Array.length inputs in
  let issued = ref 0 in
  let phase ~stop =
    let lat = ref [] and sessions = ref [] and instrs = ref 0 in
    let done_at = Hashtbl.create 64 in
    Serve_load.run ~socket ~conns:2
      ~next:(fun () ->
        if stop !issued then None
        else begin
          incr issued;
          Some (!issued - 1)
        end)
      ~hello:(fun k ->
        let inp = inputs.(k mod n) in
        L.hello_frame ~tenant:(Printf.sprintf "s%d" k) inp.lg
          ~threads:inp.threads)
      ~body:(fun k -> inputs.(k mod n).body)
      ~finish:(fun k result timing ->
        record tally inputs (k mod n) result;
        Hashtbl.replace done_at k (L.clock ());
        match timing with
        | Some t ->
          lat := (k mod n, t.Serve_load.latency) :: !lat;
          sessions := t :: !sessions;
          instrs := !instrs + inputs.(k mod n).instrs
        | None -> ());
    (!lat, !sessions, !instrs, done_at)
  in
  if warmup then begin
    let stop_at = !issued + n in
    ignore (phase ~stop:(fun k -> k >= stop_at))
  end;
  let first = !issued in
  let cpu0 = Proc.cpu_s pid and t0 = L.clock () in
  let latencies, sessions, instrs, done_at =
    phase ~stop:(fun k ->
        k > first && (k - first) mod n = 0 && L.clock () -. t0 >= seconds)
  in
  let wall = L.clock () -. t0 in
  let cpu_s = Proc.cpu_s pid -. cpu0 in
  (* Sessions overlap, so a round ends when its last session does. *)
  let rounds = (!issued - first) / n in
  let ends =
    List.init rounds (fun r ->
        Hashtbl.fold
          (fun k t acc -> if k < first + ((r + 1) * n) then Float.max acc t else acc)
          done_at t0)
  in
  {
    wall;
    rounds;
    round_walls = List.map2 ( -. ) ends (t0 :: List.filteri (fun i _ -> i < rounds - 1) ends);
    latencies;
    instrs;
    peak_rss_kb = Proc.peak_rss_kb pid;
    cpu_s;
    sessions;
    status = Result.value (L.status ~socket) ~default:"";
  }

(* On a shared host, other tenants can slow every CPU-bound job by up to
   40% for tens of seconds at a time, so the gated metrics are noise
   floors: throughput over the fastest round, and the geometric mean over
   inputs of each input's fastest latency.  A slower program raises both;
   a busier neighbour mostly does not.  The median and the tail are
   reported by the traced run, ungated. *)
let end_to_end_values ~setup_s inputs e =
  let per_input q =
    List.init (Array.length inputs) (fun i ->
        Stats.quantile q
          (List.filter_map
             (fun (j, l) -> if j = i then Some l else None)
             e.latencies))
  in
  [
    ("setup_s", setup_s);
    ("throughput_minstr_s",
     Stats.ratio (float_of_int e.instrs /. float_of_int e.rounds)
       (Stats.quantile 0. e.round_walls) /. 1e6);
    ("latency_best_ms", 1000. *. Stats.geomean (per_input 0.));
    ("peak_rss_mb", float_of_int e.peak_rss_kb /. 1024.);
    ("cpu_cores_used", Stats.ratio e.cpu_s e.wall);
    (* Ungated, in the traced run: the median latency as the geometric mean
       of each input's median (a median over the pooled jobs would sit on
       the edge between two inputs' clusters), and the pooled tail. *)
    ("e2e.latency_p50_ms", 1000. *. Stats.geomean (per_input 0.5));
    ("e2e.latency_p90_ms",
     1000. *. Stats.quantile 0.9 (List.map snd e.latencies));
  ]

(* ------------------------------------------------------------------ *)
(* Traced in-process rounds *)

(* The CLI's default path for one job, one timed call per layer. *)
let inproc_job (t : L.timer) inp =
  let p = t.time "tracing.decode" (fun () -> L.decode inp.bytes) in
  let p = t.time "machine.heartbeat" (fun () -> L.heartbeat p) in
  let e = t.time "butterfly.epochs_build" (fun () -> L.epochs p) in
  let r =
    if inp.pooled then begin
      let pool = t.time "pool.create" L.pool_create in
      let r = t.time "lifeguards.run" (fun () -> L.run ~pool inp.lg e) in
      t.time "pool.shutdown" (fun () -> L.pool_shutdown pool);
      r
    end
    else t.time "lifeguards.run" (fun () -> L.run inp.lg e)
  in
  t.time "serve.report_render" (fun () -> L.render r)

type served = { out : string; snapshots : int list; service_s : float }

let inproc_round ~dir kind t inputs =
  Array.mapi
    (fun i inp ->
      let t0 = L.clock () in
      let out, snapshots =
        match kind with
        | Batch -> (inproc_job t inp, [])
        | Serve ->
          L.replay_session t ~dir ~tenant:(Printf.sprintf "r%d" i) inp.lg
            ~threads:inp.threads inp.body
      in
      { out; snapshots; service_s = L.clock () -. t0 })
    inputs

type pair = {
  untraced_s : float;
  traced_s : float;
  busy : (string, float) Hashtbl.t;  (** layer -> ns *)
  snap : L.snapshot;
  untraced : served array;
  traced : served array;
}

(* One untraced round, then one traced round under a memory sink. *)
let measure_pair ~dir kind inputs =
  let round t =
    let t0 = L.clock () in
    let r = inproc_round ~dir kind t inputs in
    (r, L.clock () -. t0)
  in
  let untraced, untraced_s = round L.untimed in
  let busy = Hashtbl.create 16 in
  let (traced, traced_s), snap =
    L.with_memory_sink (fun () -> round (L.timing busy))
  in
  { untraced_s; traced_s; busy; snap; untraced; traced }

(* In-process sequential wall over pooled wall for the lifeguard run on
   the same inputs; 0 when no input is pooled. *)
let speedup_vs_seq inputs =
  let seq = ref 0. and par = ref 0. in
  Array.iter
    (fun inp ->
      if inp.pooled then begin
        let e = L.epochs (L.heartbeat (L.decode inp.bytes)) in
        let pool = L.pool_create () in
        let t0 = L.clock () in
        ignore (L.run ~pool inp.lg e);
        par := !par +. (L.clock () -. t0);
        L.pool_shutdown pool;
        let t0 = L.clock () in
        ignore (L.run inp.lg e);
        seq := !seq +. (L.clock () -. t0)
      end)
    inputs;
  Stats.ratio !seq !par

let wire_encode_ms inputs =
  let t0 = L.clock () in
  Array.iteri
    (fun i inp ->
      ignore (L.hello_frame ~tenant:(Printf.sprintf "w%d" i) inp.lg
                ~threads:inp.threads);
      ignore (L.session_body inp.rows))
    inputs;
  1000. *. (L.clock () -. t0)

let pair_values ~kind ~e2e_round_s ~speedup inputs p =
  let ms name = Option.value (Hashtbl.find_opt p.busy name) ~default:0. /. 1e6 in
  let busy_ms = Hashtbl.fold (fun _ ns acc -> acc +. (ns /. 1e6)) p.busy 0. in
  let wall_ms = 1000. *. p.traced_s in
  let share name = Stats.ratio (ms name) wall_ms in
  let counter name = float_of_int (L.counter p.snap name) in
  let decoded_mb =
    Array.fold_left
      (fun acc inp ->
        acc + String.length (if kind = Serve then inp.body else inp.bytes))
      0 inputs
    |> float_of_int
    |> fun b -> b /. 1e6
  in
  let confirmed, flagged =
    Array.fold_left
      (fun (c, f) (i, (s : served)) ->
        match L.check inputs.(i).expect s.out with
        | Ok (c', f') -> (c + c', f + f')
        | Error _ -> (c, f))
      (0, 0)
      (Array.mapi (fun i s -> (i, s)) p.traced)
  in
  let snapshots = Array.to_list p.traced |> List.concat_map (fun s -> s.snapshots) in
  [
    ("tracing.decode_ms", ms "tracing.decode");
    ("tracing.decode_share", share "tracing.decode");
    ("tracing.mb_per_s", Stats.ratio decoded_mb (ms "tracing.decode" /. 1000.));
    ("machine.heartbeat_ms", ms "machine.heartbeat");
    ("butterfly.epochs_build_ms", ms "butterfly.epochs_build");
    ("butterfly.pass1_ms", L.span_ms p.snap "butterfly.pass1_summarize.ns");
    ("butterfly.meet_ms", L.span_ms p.snap "butterfly.side_in_meet.ns");
    ("butterfly.lsos_ms", L.span_ms p.snap "butterfly.lsos.ns");
    ("butterfly.pass2_ms", L.span_ms p.snap "butterfly.pass2_block.ns");
    ("butterfly.epochs", counter "butterfly.epochs_processed");
    ("butterfly.pass2_instrs", counter "butterfly.pass2_instrs");
    ("lifeguards.run_ms", ms "lifeguards.run");
    ("lifeguards.run_share", share "lifeguards.run");
    ("lifeguards.checks", counter "lifeguard.checks");
    ("lifeguards.flags", counter "lifeguard.flags");
    ("lifeguards.isolation_ms", L.span_ms p.snap "lifeguard.isolation.ns");
    ("lifeguards.phase2_rechecks", counter "lifeguard.phase2_rechecks");
    ("racecheck.hb_suppressed", counter "racecheck.hb_suppressed");
    ("racecheck.lock_suppressed", counter "racecheck.lock_suppressed");
    ("lifeguards.confirmed_ratio",
     if flagged = 0 then 1. else float_of_int confirmed /. float_of_int flagged);
    ("pool.create_ms", ms "pool.create");
    ("pool.shutdown_ms", ms "pool.shutdown");
    ("pool.task_ms", L.span_ms p.snap "pool.task.ns");
    ("pool.submit_wait_ms", L.span_ms p.snap "pool.submit_wait.ns");
    ("pool.utilization",
     Stats.ratio (L.span_ms p.snap "pool.task.ns")
       (float_of_int L.pool_domains *. ms "lifeguards.run"));
    ("pool.speedup_vs_seq", speedup);
    ("state.arena_bytes", counter "state.arena.bytes");
    ("state.arena_grows", counter "state.arena.grows");
    ("recovery.encode_ms", ms "recovery.encode");
    ("recovery.write_ms", ms "recovery.write");
    ("recovery.snapshot_kb",
     Stats.mean (List.map (fun b -> float_of_int b /. 1024.) snapshots));
    ("recovery.checkpoints", float_of_int (List.length snapshots));
    ("serve.report_render_ms", ms "serve.report_render");
    ("serve.wire_encode_ms", if kind = Serve then wire_encode_ms inputs else 0.);
    ("serve.reassembly_ms", ms "serve.reassembly");
    ("process.outside_share", 1. -. Stats.ratio p.untraced_s e2e_round_s);
    ("process.unattributed_share", 1. -. Stats.ratio busy_ms wall_ms);
    ("obs.trace_overhead_pct", 100. *. (Stats.ratio p.traced_s p.untraced_s -. 1.));
  ]

(* Per-layer values that come from the end-to-end phase or span pairs. *)
let serve_values kind e pairs =
  if kind = Batch then []
  else
    let q f p = 1000. *. Stats.quantile p (List.map f e.sessions) in
    let service =
      List.concat_map
        (fun p -> Array.to_list (Array.map (fun s -> s.service_s) p.untraced))
        pairs
    in
    let status name = float_of_int (L.status_counter e.status name) in
    [
      ("serve.hello_rtt_p50_ms", q (fun t -> t.Serve_load.hello_rtt) 0.5);
      ("serve.data_send_p50_ms", q (fun t -> t.Serve_load.data_send) 0.5);
      ("serve.service_p50_ms", 1000. *. Stats.median service);
      ("serve.wait_share",
       1. -. Stats.ratio (Stats.mean service) (Stats.mean (List.map snd e.latencies)));
      ("serve.latency_p99_ms", q (fun t -> t.Serve_load.latency) 0.99);
      ("serve.fin_to_report_p50_ms", q (fun t -> t.Serve_load.fin_to_report) 0.5);
      ("serve.fin_to_report_p99_ms", q (fun t -> t.Serve_load.fin_to_report) 0.99);
      ("serve.frames", status "serve.frames");
      ("serve.rows", status "serve.rows");
      ("serve.errors", status "serve.errors");
    ]

(* ------------------------------------------------------------------ *)
(* One run *)

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;
  samples : int;  (** jobs or sessions in the timed phase *)
  rounds : int;
}

let run ~cli ~size ~seed ~seconds ~trace w =
  let dir = Filename.concat "_e2e" (string_of_int (Unix.getpid ())) in
  let tally = { attempted = 0; failed = 0; outputs = Hashtbl.create 64 } in
  let daemon = ref None in
  let stop_daemon () =
    Option.iter (fun (pid, _) -> Proc.stop pid) !daemon;
    daemon := None
  in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon ();
      Proc.remove_tree dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    (fun () ->
      (* Set up several times and report the median, so that a change
         moving work into set-up shows despite noise. *)
      let setups =
        List.init
          (match size with Full -> 5 | Smoke -> 1)
          (fun _ ->
            stop_daemon ();
            Proc.remove_tree dir;
            Gc.full_major ();
            let t0 = L.clock () in
            Proc.mkdir_p dir;
            let inputs = make_inputs ~dir size ~seed w in
            if w.kind = Serve then daemon := Some (boot ~cli ~dir);
            (inputs, L.clock () -. t0))
      in
      let inputs = fst (List.nth setups (List.length setups - 1)) in
      let setup_s = Stats.median (List.map snd setups) in
      let warmup = size = Full in
      let phase_s =
        match size with
        | Smoke -> 0.
        | Full -> if trace then seconds /. 2. else seconds
      in
      let e =
        match (w.kind, !daemon) with
        | Batch, _ -> e2e_batch ~cli ~warmup ~seconds:phase_s tally inputs
        | Serve, Some (pid, socket) ->
          e2e_serve ~pid ~socket ~warmup ~seconds:phase_s tally inputs
        | Serve, None -> assert false
      in
      let values =
        let e2e_values = end_to_end_values ~setup_s inputs e in
        if not trace then e2e_values
        else begin
          let replay = Filename.concat dir "replay" in
          Proc.mkdir_p replay;
          let speedup = speedup_vs_seq inputs in
          let t0 = L.clock () in
          let rec pairs acc =
            let p = measure_pair ~dir:replay w.kind inputs in
            Array.iter
              (Array.iteri (fun i s -> record tally inputs i (Ok s.out)))
              [| p.untraced; p.traced |];
            if size = Smoke || L.clock () -. t0 >= phase_s then p :: acc
            else pairs (p :: acc)
          in
          let pairs = pairs [] in
          let per_pair =
            List.map
              (pair_values ~kind:w.kind
                 ~e2e_round_s:(Stats.median e.round_walls) ~speedup inputs)
              pairs
          in
          let median name =
            Stats.median (List.map (fun vs -> List.assoc name vs) per_pair)
          in
          let from_pairs = List.map (fun (name, _) -> (name, median name)) (List.hd per_pair) in
          let extra = e2e_values @ serve_values w.kind e pairs in
          List.map
            (fun (mt : metric) ->
              match List.assoc_opt mt.name (extra @ from_pairs) with
              | Some v -> (mt.name, v)
              | None -> (mt.name, 0.))
            per_layer
        end
      in
      settle tally inputs;
      {
        attempted = tally.attempted;
        failed = tally.failed;
        values;
        samples = List.length e.latencies;
        rounds = e.rounds;
      })
