(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks, one group per reproduced artifact:
   the analysis kernels behind Table 1 (machine model), Figure 11
   (monitoring configurations), Figure 12 (epoch-size sensitivity) and
   Figure 13 (precision), plus the core data structures everything rides
   on.  Part 2 — full regeneration of every table and figure, printed to
   stdout (the same output `butterfly_cli table1|figure11|figure12|figure13`
   produces). *)

open Bechamel

(* ------------------------------------------------------------------ *)
(* Workload/analysis fixtures shared by the benches (built once).      *)

let fixture_program name ~threads ~scale ~h =
  let profile = Option.get (Workloads.Registry.find name) in
  Workloads.Workload.generate_program profile ~threads ~scale ~seed:7
  |> Machine.Heartbeat.insert ~every:h

let ocean_small = fixture_program "ocean" ~threads:4 ~scale:1500 ~h:128
let ocean_small_epochs = Butterfly.Epochs.of_program ocean_small
let fft_small = fixture_program "fft" ~threads:4 ~scale:1500 ~h:128

(* Large streaming workload: the sequential-vs-pooled comparison needs
   enough per-epoch work for fan-out to matter, but each entry also needs
   several samples for the gate's ratio bounds to mean anything.  Two
   threads of LU churn land a sequential pass around a quarter second
   (the pooled driver roughly doubles that), so the timed quota below
   collects at least a handful of runs per entry.  (The previous fixture,
   OCEAN at scale 1200, cost ~14 s per pass: OCEAN's fixed-size stencil
   iteration is all-or-nothing, so every streaming entry sat at runs:1.) *)
let lu_large = fixture_program "lu" ~threads:2 ~scale:1200 ~h:64
let lu_large_epochs = Butterfly.Epochs.of_program lu_large

let exploit_program = (Workloads.Exploit.cross_thread_chain ()).program
let exploit_epochs = Butterfly.Epochs.of_program exploit_program

let frag_a =
  Butterfly.Interval_set.of_intervals
    (List.init 200 (fun k -> (k * 128, (k * 128) + 64)))

let frag_b =
  Butterfly.Interval_set.of_intervals
    (List.init 200 (fun k -> ((k * 128) + 32, (k * 128) + 96)))

let site k = Butterfly.Instr_id.make ~epoch:k ~tid:(k mod 4) ~index:k

let defs =
  Butterfly.Def_set.of_list
    (List.init 64 (fun k ->
         Butterfly.Definition.make ~loc:(k mod 16) ~site:(site k)))

let kills =
  List.init 16 Butterfly.Def_set.all_of_loc
  |> List.fold_left Butterfly.Def_set.union Butterfly.Def_set.empty

let exprs =
  Butterfly.Expr_set.of_list
    (List.init 64 (fun k -> Butterfly.Expr.binop (k mod 12) ((k + 5) mod 12)))

let expr_kills =
  List.init 12 Butterfly.Expr_set.killing
  |> List.fold_left Butterfly.Expr_set.union Butterfly.Expr_set.empty

let vo_fixture =
  Memmodel.Valid_ordering.of_blocks
    [|
      [ [| Tracing.Instr.Assign_const 0 |]; [| Tracing.Instr.Read 0 |] ];
      [ [| Tracing.Instr.Assign_const 1 |]; [| Tracing.Instr.Read 1 |] ];
    |]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks.                                                    *)

let core_tests =
  Test.make_grouped ~name:"substrates"
    [
      Test.make ~name:"interval_set.union"
        (Staged.stage (fun () -> Butterfly.Interval_set.union frag_a frag_b));
      Test.make ~name:"interval_set.diff"
        (Staged.stage (fun () -> Butterfly.Interval_set.diff frag_a frag_b));
      Test.make ~name:"def_set.kill-consensus"
        (Staged.stage (fun () ->
             Butterfly.Def_set.union
               (Butterfly.Def_set.inter kills kills)
               (Butterfly.Def_set.diff kills defs)));
      Test.make ~name:"expr_set.diff-wildcards"
        (Staged.stage (fun () -> Butterfly.Expr_set.diff exprs expr_kills));
      Test.make ~name:"valid_ordering.enumerate"
        (Staged.stage (fun () ->
             Memmodel.Valid_ordering.count ~cap:5_000 vo_fixture));
      Test.make ~name:"scheduler.streaming-run"
        (Staged.stage
           (let module S = Butterfly.Scheduler.Make
                (Butterfly.Reaching_definitions.Problem) in
            fun () ->
              let s = S.create ~threads:3 ~on_instr:(fun _ -> ()) () in
              for tid = 0 to 2 do
                S.feed_trace s tid (Tracing.Program.trace exploit_program tid)
              done;
              S.finish s));
      Test.make ~name:"idempotent_filter.walk-1k"
        (Staged.stage (fun () ->
             let f = Machine.Idempotent_filter.create () in
             for k = 0 to 999 do
               ignore
                 (Machine.Idempotent_filter.admit f
                    (Tracing.Instr.Read (64 * (k mod 600))))
             done));
    ]

(* Table 1: the machine model — cache-simulated application timing. *)
let table1_tests =
  Test.make_grouped ~name:"table1.machine-model"
    [
      Test.make ~name:"app-timing.per-thread-epochs"
        (Staged.stage (fun () ->
             Machine.App_timing.per_thread_epochs Machine.Machine_config.default
               fft_small));
      Test.make ~name:"app-timing.sequential"
        (Staged.stage (fun () ->
             Machine.App_timing.sequential_cycles Machine.Machine_config.default
               fft_small));
    ]

(* Figure 11: the three monitoring configurations. *)
let figure11_tests =
  let app =
    Machine.App_timing.per_thread_epochs Machine.Machine_config.default
      ocean_small
  in
  Test.make_grouped ~name:"figure11.monitoring"
    [
      Test.make ~name:"butterfly.addrcheck-run"
        (Staged.stage (fun () -> Lifeguards.Addrcheck.run ocean_small_epochs));
      Test.make ~name:"butterfly.cost-model"
        (Staged.stage (fun () ->
             Harness.Cost_model.butterfly_input Machine.Machine_config.default
               ocean_small ~app ~flagged:(fun _ _ -> 0)));
      Test.make ~name:"timesliced.lifeguard"
        (Staged.stage (fun () ->
             Harness.Cost_model.timesliced_lifeguard_cycles
               Machine.Machine_config.default ocean_small));
      Test.make ~name:"monitor-sim.timeline"
        (Staged.stage
           (let input =
              Harness.Cost_model.butterfly_input Machine.Machine_config.default
                ocean_small ~app ~flagged:(fun _ _ -> 0)
            in
            fun () -> Machine.Monitor_sim.parallel input));
    ]

(* Figure 12: epoch-size sensitivity of the analysis itself. *)
let figure12_tests =
  let with_h h =
    Butterfly.Epochs.of_program
      (fixture_program "ocean" ~threads:4 ~scale:1500 ~h)
  in
  let small = with_h 64 and large = with_h 512 in
  Test.make_grouped ~name:"figure12.epoch-size"
    [
      Test.make ~name:"addrcheck.h=64"
        (Staged.stage (fun () -> Lifeguards.Addrcheck.run small));
      Test.make ~name:"addrcheck.h=512"
        (Staged.stage (fun () -> Lifeguards.Addrcheck.run large));
    ]

(* Streaming drivers: the same butterfly pass over the same trace, run on
   the sequential scheduler and on domain pools of increasing width.  The
   pools outlive the measurement loop (created once in [main], shut down
   after), so the numbers compare steady-state dispatch, not domain
   spawning. *)
module SRD = Butterfly.Scheduler.Make (Butterfly.Reaching_definitions.Problem)

let streaming_run ?pool () =
  ignore (SRD.run_epochs ?pool ~on_instr:(fun _ -> ()) lu_large_epochs)

let streaming_tests pools =
  Test.make_grouped ~name:"streaming"
    (Test.make ~name:"sequential" (Staged.stage (fun () -> streaming_run ()))
    :: List.map
         (fun (d, pool) ->
           Test.make
             ~name:(Printf.sprintf "pooled-%d" d)
             (Staged.stage (fun () -> streaming_run ~pool ())))
         pools)

(* TaintCheck drivers: none of the registry workloads emit taint traffic
   (only the tiny exploit scenarios do), so the sequential-vs-pooled
   comparison runs over a hand-built fixture — a deterministic mix of
   sources, sanitizers, inheritance chains and sinks over a small shared
   address space, big enough per epoch for fan-out to matter. *)
let taint_program ~threads ~scale ~h =
  let instrs t =
    List.init scale (fun k ->
        let a = ((k * 7) + (t * 13)) mod 24 and b = ((k * 5) + 3) mod 24 in
        match k mod 12 with
        | 0 -> Tracing.Instr.Taint_source a
        | 1 | 2 | 3 -> Tracing.Instr.Assign_unop (b, a)
        | 4 -> Tracing.Instr.Assign_binop (a, b, (k + 9) mod 24)
        | 5 -> Tracing.Instr.Untaint b
        | 6 -> Tracing.Instr.Syscall_arg a
        | 7 -> Tracing.Instr.Jump_via b
        | 8 -> Tracing.Instr.Assign_const a
        | 9 | 10 -> Tracing.Instr.Read a
        | _ -> Tracing.Instr.Nop)
  in
  Tracing.Program.of_instrs (List.init threads instrs)
  |> Machine.Heartbeat.insert ~every:h

let taint_epochs =
  Butterfly.Epochs.of_program (taint_program ~threads:4 ~scale:1000 ~h:64)

let taint_run ?pool () = ignore (Lifeguards.Taintcheck.run ?pool taint_epochs)

let taint_tests pools =
  Test.make_grouped ~name:"taint"
    (Test.make ~name:"sequential" (Staged.stage (fun () -> taint_run ()))
    :: List.map
         (fun (d, pool) ->
           Test.make
             ~name:(Printf.sprintf "pooled-%d" d)
             (Staged.stage (fun () -> taint_run ~pool ())))
         pools)

(* RaceCheck drivers: happens-before/lockset pairing over the
   lock-discipline workload.  Discipline 0.7 leaves most accesses
   guarded and seeds genuine races, so both suppression paths (vector
   clock and lockset) and the cross-thread pairing loop all do real
   work. *)
let race_epochs =
  Workloads.Synthetic.generate_racy ~counters:8 ~discipline:0.7 ~threads:4
    ~scale:1000 ~seed:7 ()
  |> Workloads.Workload.Bundle.program
  |> Tracing.Program.with_heartbeats ~every:64
  |> Butterfly.Epochs.of_program

let race_run ?pool () = ignore (Lifeguards.Racecheck.run ?pool race_epochs)

let race_tests pools =
  Test.make_grouped ~name:"race"
    (Test.make ~name:"sequential" (Staged.stage (fun () -> race_run ()))
    :: List.map
         (fun (d, pool) ->
           Test.make
             ~name:(Printf.sprintf "pooled-%d" d)
             (Staged.stage (fun () -> race_run ~pool ())))
         pools)

(* Fact tables on the functional structures, plus trace ingestion.  The
   group keeps its historical [flat-vs-functional] name and the
   [.functional] suffixes so gate.exe's trajectory rule keeps comparing
   these entries with earlier points; the flat backend they were once
   paired with is retired.  The ingest.* entries compare two library
   decoders feeding the same AddrCheck engine: [decode_binary] into a
   whole program and its epoch grid, against the zero-copy cursor walk
   the CLI uses for every binary trace. *)
(* Fan-out TaintCheck fixture: eight threads, 128-instruction blocks,
   taint sources scattered over a 4k address space.  Every window slide
   recomputes each wing block's GEN/KILL summary once per body —
   threads x (threads - 1) times plus the SOS update — so the per-block
   summary cost grows quadratically with thread count.  (The narrow
   fixture above fits the whole taint state in a few machine words; it
   keeps serving the driver-comparison group.) *)
let taint_fanout_epochs =
  let threads = 8 and scale = 2000 and span = 4096 in
  let instrs t =
    List.init scale (fun k ->
        let a = ((k * 2654435761) + (t * 977)) land (span - 1) in
        let b = ((k * 40503) + (t * 131) + 12289) land (span - 1) in
        match k mod 16 with
        | m when m < 10 -> Tracing.Instr.Taint_source a
        | 12 -> Tracing.Instr.Untaint b
        | 13 -> Tracing.Instr.Assign_unop (b, a)
        | 14 -> Tracing.Instr.Syscall_arg b
        | _ -> Tracing.Instr.Nop)
  in
  Tracing.Program.of_instrs (List.init threads instrs)
  |> Machine.Heartbeat.insert ~every:128
  |> Butterfly.Epochs.of_program

let fact_table_tests =
  let ocean_binary = Tracing.Trace_codec.encode_binary ocean_small in
  let cursor_run () =
    match Tracing.Trace_codec.Cursor.of_string ocean_binary with
    | Error m -> failwith m
    | Ok c ->
      let st =
        Lifeguards.Addrcheck.Resumable.create
          ~threads:(Tracing.Trace_codec.Cursor.threads c) ()
      in
      Tracing.Trace_codec.Cursor.iter_rows c
        (Lifeguards.Addrcheck.Resumable.feed_epoch st);
      ignore (Lifeguards.Addrcheck.Resumable.finish st)
  in
  let list_run () =
    match Tracing.Trace_codec.decode_binary ocean_binary with
    | Error m -> failwith m
    | Ok p ->
      ignore (Lifeguards.Addrcheck.run (Butterfly.Epochs.of_program p))
  in
  Test.make_grouped ~name:"flat-vs-functional"
    [
      Test.make ~name:"taint.functional"
        (Staged.stage (fun () ->
             ignore (Lifeguards.Taintcheck.run taint_fanout_epochs)));
      Test.make ~name:"addrcheck-ocean.functional"
        (Staged.stage (fun () ->
             ignore (Lifeguards.Addrcheck.run ocean_small_epochs)));
      Test.make ~name:"initcheck-ocean.functional"
        (Staged.stage (fun () ->
             ignore (Lifeguards.Initcheck.run ocean_small_epochs)));
      Test.make ~name:"ingest.list" (Staged.stage list_run);
      Test.make ~name:"ingest.cursor" (Staged.stage cursor_run);
    ]

(* Serving throughput: full HELLO→DATA→FIN→REPORT conversations against
   a live daemon on a Unix socket, 1 tenant vs 8 concurrent tenants.
   Reports per second is 1e9/ns_per_run (×8 for the 8-tenant entry).
   The daemon feeds every session from one domain, so 8 tenants carry
   ~8× the analysis work of the solo entry; what the pair tracks is the
   multiplexing tax on top of that — select churn, frame decoding and
   the round-robin rotation across 8 live connections.  The daemon
   outlives the measurement loop (booted once around this group's
   measurement, see [measure_serve] in [main]), so the numbers compare
   steady-state serving, not daemon start-up. *)
let serve_rows, serve_threads =
  let p = fixture_program "lu" ~threads:4 ~scale:400 ~h:64 in
  (Recovery.Runner.rows_of (Butterfly.Epochs.of_program p), 4)

let serve_one ~socket tenant =
  let hello =
    {
      Serve.Wire.tenant;
      lifeguard = Recovery.Snapshot.Addrcheck;
      driver = `Sequential;
      state = `Functional;
      relaxed = false;
      threads = serve_threads;
    }
  in
  match Serve.Client.run_tenant ~socket ~hello serve_rows with
  | Ok _ -> ()
  | Error m -> failwith ("serve bench: " ^ m)

let serve_tests socket =
  Test.make_grouped ~name:"serve"
    [
      Test.make ~name:"tenants-1"
        (Staged.stage (fun () -> serve_one ~socket "bench0"));
      Test.make ~name:"tenants-8"
        (Staged.stage (fun () ->
             List.init 8 (fun i ->
                 Domain.spawn (fun () ->
                     serve_one ~socket (Printf.sprintf "bench%d" i)))
             |> List.iter Domain.join));
    ]

(* Obs null path: the instrument calls the scheduler hot path makes,
   measured under the default null sink — the tax every run pays whether
   or not telemetry is being collected.  The allocation guard lives in
   test_obs (null_sink_allocation_free); this group tracks the cycles. *)
let obs_counter = Obs.Counter.make "bench.obs.counter"
let obs_gauge = Obs.Gauge.make "bench.obs.gauge"
let obs_hist = Obs.Histogram.make "bench.obs.hist"

let obs_tests =
  Test.make_grouped ~name:"obs.null-sink"
    [
      Test.make ~name:"counter.incr-1k"
        (Staged.stage (fun () ->
             for _ = 1 to 1000 do Obs.Counter.incr obs_counter done));
      Test.make ~name:"gauge.set-1k"
        (Staged.stage (fun () ->
             for _ = 1 to 1000 do Obs.Gauge.set obs_gauge 0.5 done));
      Test.make ~name:"histogram.observe-1k"
        (Staged.stage (fun () ->
             for _ = 1 to 1000 do Obs.Histogram.observe obs_hist 1.5 done));
      Test.make ~name:"scope.with_scope-1k"
        (Staged.stage (fun () ->
             for k = 1 to 1000 do
               Obs.Scope.with_scope ~epoch:k ~tid:0 ~phase:"pass2" ignore
             done));
    ]

(* Figure 13: precision machinery — the checks that classify events. *)
let figure13_tests =
  Test.make_grouped ~name:"figure13.precision"
    [
      Test.make ~name:"taintcheck.window-checks"
        (Staged.stage (fun () ->
             Lifeguards.Taintcheck.run ~sequential:true exploit_epochs));
      Test.make ~name:"reaching-definitions.epochs"
        (Staged.stage (fun () ->
             Butterfly.Reaching_definitions.run exploit_epochs));
      Test.make ~name:"reaching-expressions.epochs"
        (Staged.stage (fun () ->
             Butterfly.Reaching_expressions.run exploit_epochs));
    ]

(* One measured benchmark: noise-floor ns-per-run estimate plus the
   number of raw measurements it was taken over.

   The estimator is the minimum time/runs across all samples, not an
   OLS fit.  gate.exe holds hard ratio bounds on these numbers, and on
   a shared single-core box the noise is strictly one-sided — GC major
   slices, CPU steal and scheduler preemption only ever add time — so
   the floor is the stable, comparable statistic while a fitted slope
   swings by tens of percent depending on which samples caught an
   outlier (observed: the same entry at 12 ms and 30 ms in back-to-back
   suite runs under OLS). *)
type measurement = { name : string; runs : int; ns_per_run : float }

let measure_benchmarks groups =
  let instance = Toolkit.Instance.monotonic_clock in
  let label = Measure.label instance in
  List.map
    (fun (quota, stabilize, tests) ->
      let cfg =
        Benchmark.cfg ~limit:50 ~stabilize ~quota:(Time.second quota) ()
      in
      let raw = Benchmark.all cfg [ instance ] tests in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) raw [] in
      List.map
        (fun name ->
          let (b : Benchmark.t) = Hashtbl.find raw name in
          let floor =
            Array.fold_left
              (fun acc m ->
                let runs = Measurement_raw.run m in
                if runs <= 0.0 then acc
                else Float.min acc (Measurement_raw.get ~label m /. runs))
              infinity b.lr
          in
          let est = if Float.is_finite floor then floor else nan in
          { name; runs = b.stats.samples; ns_per_run = est })
        (List.sort compare names))
    groups
  |> List.concat

let print_text measurements =
  List.iter
    (fun m ->
      let pretty =
        if m.ns_per_run > 1e6 then Printf.sprintf "%8.3f ms" (m.ns_per_run /. 1e6)
        else if m.ns_per_run > 1e3 then
          Printf.sprintf "%8.3f us" (m.ns_per_run /. 1e3)
        else Printf.sprintf "%8.1f ns" m.ns_per_run
      in
      Printf.printf "  %-45s %s/run\n%!" m.name pretty)
    measurements

(* Machine-readable mode: the perf baseline future changes regress
   against.  One JSON array of {name, runs, ns_per_run} on stdout,
   nothing else. *)
let print_json measurements =
  let j =
    Obs.Json.List
      (List.map
         (fun m ->
           Obs.Json.Obj
             [
               ("name", Obs.Json.String m.name);
               ("runs", Obs.Json.Int m.runs);
               ("ns_per_run", Obs.Json.Float m.ns_per_run);
             ])
         measurements)
  in
  print_endline (Obs.Json.to_string j)

(* ------------------------------------------------------------------ *)

let () =
  (* [--probe]: direct wall-clock + GC timing of the fact-table
     fixtures, 2 s of repeated runs each after one warm-up.  Bechamel's
     quota/regression machinery is the committed instrument, but on
     300-700 ms fixtures its sample counts are small and run-to-run
     medians wobble; this probe is the diagnostic to reach for when a
     gate ratio looks implausible.  Not part of [--json] output. *)
  (if Array.exists (( = ) "--probe") Sys.argv then begin
     let major0 = ref 0.0 in
     let time name f =
       ignore (f ());
       major0 := (Gc.quick_stat ()).Gc.major_words;
       let t0 = Unix.gettimeofday () in
       let n = ref 0 in
       while Unix.gettimeofday () -. t0 < 2.0 do
         ignore (f ());
         incr n
       done;
       let st = Gc.quick_stat () in
       Printf.printf "%-28s %8.2f ms/run (%d runs)  major %.1f MB/run\n%!" name
         ((Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int !n)
         !n
         ((st.Gc.major_words -. !major0) *. 8e-6 /. float_of_int !n);
       major0 := (Gc.quick_stat ()).Gc.major_words
     in
     time "taint.functional" (fun () ->
         Lifeguards.Taintcheck.run taint_fanout_epochs);
     time "taint-narrow.functional" (fun () ->
         Lifeguards.Taintcheck.run taint_epochs);
     time "addrcheck.functional" (fun () ->
         Lifeguards.Addrcheck.run ocean_small_epochs);
     time "initcheck.functional" (fun () ->
         Lifeguards.Initcheck.run ocean_small_epochs);
     exit 0
   end);
  let json = Array.exists (( = ) "--json") Sys.argv in
  let streaming_only = Array.exists (( = ) "--streaming-only") Sys.argv in
  let taint_only = Array.exists (( = ) "--taint-only") Sys.argv in
  let race_only = Array.exists (( = ) "--race-only") Sys.argv in
  let flat_only = Array.exists (( = ) "--flat-only") Sys.argv in
  let serve_only = Array.exists (( = ) "--serve-only") Sys.argv in
  let pools =
    List.map
      (fun d ->
        ( d,
          Butterfly.Domain_pool.create
            ~name:(Printf.sprintf "bench-%d" d)
            ~domains:d () ))
      [ 2; 4 ]
  in
  (* The serve group gets its daemon scoped to its own measurement: an
     extra live domain parked in the daemon's select loop for the whole
     suite drags every microsecond-scale entry (each stop-the-world
     minor collection synchronises one more domain), which showed up as
     10-50x "regressions" on obs.null-sink when the daemon stayed
     resident from [main].  Boot, measure, tear down. *)
  let measure_serve quota =
    let socket = Filename.temp_file "bench_serve" ".sock" in
    Sys.remove socket;
    let stop = Atomic.make `Run in
    let daemon =
      Domain.spawn (fun () ->
          Serve.Daemon.run
            ~stop:(fun () -> Atomic.get stop)
            (Serve.Daemon.config ~socket ()))
    in
    (match Serve.Client.status ~socket () with
    | Ok _ -> ()
    | Error m -> failwith ("serve bench daemon never came up: " ^ m));
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop `Quit;
        Domain.join daemon;
        if Sys.file_exists socket then Sys.remove socket)
      (fun () -> measure_benchmarks [ (quota, true, serve_tests socket) ])
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> Butterfly.Domain_pool.shutdown p) pools)
    (fun () ->
      (* Most groups live on a 1s quota (bechamel stabilizes the GC
         before every sample, so even microsecond entries only collect
         a handful of samples per second — the ~limit:50 cap keeps the
         cheap ones from eating the whole quota).  The groups whose
         entries run for hundreds of ms — flat-vs-functional and the
         streaming group — get 4-6s quotas instead: a short quota would pin them at a single sample each,
         gating on noise. *)
      let groups =
        if streaming_only then [ (6.0, false, streaming_tests pools) ]
        else if taint_only then [ (1.0, true, taint_tests pools) ]
        else if race_only then [ (1.0, true, race_tests pools) ]
        else if flat_only then [ (4.0, true, fact_table_tests) ]
        else if serve_only then []
        else
          [
            (1.0, true, core_tests); (1.0, true, obs_tests);
            (1.0, true, table1_tests); (1.0, true, figure11_tests);
            (1.0, true, figure12_tests); (1.0, true, figure13_tests);
            (6.0, false, streaming_tests pools);
            (1.0, true, taint_tests pools);
            (1.0, true, race_tests pools); (4.0, true, fact_table_tests);
          ]
      in
      let full_suite =
        not
          (streaming_only || taint_only || race_only || flat_only
         || serve_only)
      in
      let measure_all () =
        let base = measure_benchmarks groups in
        if serve_only || full_suite then base @ measure_serve 2.0 else base
      in
      if json then print_json (measure_all ())
      else begin
        print_endline
          "=== Bechamel micro-benchmarks (one group per artifact) ===";
        print_text (measure_all ());
        if full_suite then begin
          print_endline "";
          print_endline "=== Regenerated paper artifacts ===";
          print_endline "";
          print_string (Harness.Table1.render ());
          print_endline "";
          print_string (Harness.Figure11.render (Harness.Figure11.run ()));
          print_endline "";
          print_string (Harness.Figure12.render (Harness.Figure12.run ()));
          print_endline "";
          print_string (Harness.Figure13.render (Harness.Figure13.run ()))
        end
      end)
