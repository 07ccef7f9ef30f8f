(* Command-line interface: regenerate the paper's tables and figures, and
   analyze external traces with the butterfly lifeguards. *)

open Cmdliner

let scale_arg =
  let doc = "Total application instructions (split across threads)." in
  Arg.(value & opt int Harness.Experiment.default_config.total_scale
       & info [ "scale" ] ~doc)

let seed_arg =
  let doc = "Workload generation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let config_of scale seed =
  { Harness.Experiment.default_config with total_scale = scale; seed }

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing: every subcommand takes [--stats[=FORMAT]], which
   runs it under an in-memory Obs registry and appends a structured run
   report after the normal output. *)

let stats_arg =
  let fmt =
    Arg.enum [ ("text", `Text); ("json", `Json); ("prometheus", `Prometheus) ]
  in
  Arg.(value
       & opt ~vopt:(Some `Text) (some fmt) None
       & info [ "stats" ] ~docv:"FORMAT"
           ~doc:"Append a structured telemetry report (metric registry \
                 snapshot) after normal output; FORMAT is $(b,text) \
                 (default), $(b,json) or $(b,prometheus).")

let print_snapshot fmt snap =
  match fmt with
  | `Text ->
    Format.printf "@.--- run report ---@.";
    Format.printf "%a" Obs.Snapshot.pp snap
  | `Json -> print_endline (Obs.Json.to_string (Obs.Snapshot.to_json snap))
  | `Prometheus -> print_string (Obs.Snapshot.to_prometheus snap)

let obs_jsonl_arg =
  Arg.(value
       & opt (some string) None
       & info [ "obs-jsonl" ] ~docv:"FILE"
           ~doc:"Also stream every telemetry event to $(docv) as JSON lines \
                 (timestamped, scope-tagged); feed the file to $(b,viz \
                 --dashboard) to render it.")

let with_stats ?obs_jsonl stats f =
  match (stats, obs_jsonl) with
  | None, None -> f ()
  | _ ->
    let mem = if stats = None then None else Some (Obs.Sink.memory ()) in
    let with_jsonl k =
      match obs_jsonl with
      | None -> k None
      | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            let ppf = Format.formatter_of_out_channel oc in
            let r = k (Some (Obs.Sink.jsonl ppf)) in
            Format.pp_print_flush ppf ();
            r)
    in
    let r =
      with_jsonl (fun jsonl ->
          let sink =
            match (mem, jsonl) with
            | Some m, Some j -> Obs.Sink.tee m j
            | Some m, None -> m
            | None, Some j -> j
            | None, None -> assert false
          in
          Obs.with_sink sink f)
    in
    (match (stats, mem) with
    | Some fmt, Some m -> print_snapshot fmt (Obs.Sink.snapshot m)
    | _ -> ());
    r

(* ------------------------------------------------------------------ *)
(* JSON report serialization lives in [Serve.Report], so [--json] here
   and a daemon's REPORT frames render the same bytes — the serve
   differential battery compares the two outputs verbatim. *)

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit the error list and totals as a JSON object instead \
                 of text.")

(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run stats =
    with_stats stats (fun () -> print_string (Harness.Table1.render ()))
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table 1 (simulator and benchmark parameters)")
    Term.(const run $ stats_arg)

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV instead of a table.")

let figure11_cmd =
  let run scale seed h csv stats =
    with_stats stats (fun () ->
        let config = config_of scale seed in
        let results = Harness.Figure11.run ~config ~epoch_size:h () in
        print_string
          (if csv then Harness.Figure11.to_csv results
           else Harness.Figure11.render results))
  in
  let h_arg =
    Arg.(value & opt int 512 & info [ "e"; "epoch-size" ]
         ~doc:"Epoch size in instructions per thread.")
  in
  Cmd.v (Cmd.info "figure11" ~doc:"Regenerate Figure 11 (relative performance)")
    Term.(const run $ scale_arg $ seed_arg $ h_arg $ csv_arg $ stats_arg)

let figure12_cmd =
  let run scale seed csv stats =
    with_stats stats (fun () ->
        let config = config_of scale seed in
        let results = Harness.Figure12.run ~config () in
        print_string
          (if csv then Harness.Figure12.to_csv results
           else Harness.Figure12.render results))
  in
  Cmd.v (Cmd.info "figure12" ~doc:"Regenerate Figure 12 (performance vs epoch size)")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg $ stats_arg)

let figure13_cmd =
  let run scale seed csv stats =
    with_stats stats (fun () ->
        let config = config_of scale seed in
        let results = Harness.Figure13.run ~config () in
        print_string
          (if csv then Harness.Figure13.to_csv results
           else Harness.Figure13.render results))
  in
  Cmd.v (Cmd.info "figure13" ~doc:"Regenerate Figure 13 (false positives vs epoch size)")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg $ stats_arg)

let sensitivity_cmd =
  let run stats =
    with_stats stats (fun () -> print_string (Harness.Sensitivity.render ()))
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Knob sweeps and ablations (churn/sharing/imbalance, isolation split)")
    Term.(const run $ stats_arg)

let trace_arg =
  let doc = "Trace file (Trace_codec format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let h_arg =
  Arg.(value & opt int 64 & info [ "e"; "epoch-size" ]
       ~doc:"Re-heartbeat the trace with this epoch size (0 keeps existing \
             heartbeats).")

(* [--domains 0] (or a negative count) is a usage error, caught at parse
   time rather than as an [Invalid_argument] escaping from pool creation. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg "expected a positive integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(value & opt (some positive_int) None & info [ "domains" ] ~docv:"N"
       ~doc:"Run the lifeguard on a pool of $(docv) worker domains (capped \
             at the hardware's recommended domain count) instead of on the \
             calling domain alone: each epoch's per-thread work fans out on \
             the pool and is committed in thread order.  The output is \
             identical in either mode.")

(* Checkpoint/restore plumbing (lib/recovery), shared by the lifeguard
   subcommands. *)

let ckpt_every_arg =
  Arg.(value & opt (some positive_int) None
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Snapshot the analysis state every $(docv) epochs (default 1 \
                 when only $(b,--checkpoint-out) is given).  Requires \
                 $(b,--checkpoint-out).")

let ckpt_out_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-out" ] ~docv:"FILE"
           ~doc:"Checkpoint snapshot file, atomically overwritten at each \
                 checkpoint; resume with $(b,--resume) $(docv).")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume the analysis from a checkpoint snapshot written by \
                 $(b,--checkpoint-out), feeding only the remaining epochs of \
                 TRACE.  The report is identical to an uninterrupted run.")

let checkpointing_of every out =
  match (every, out) with
  | None, None -> None
  | Some _, None ->
    prerr_endline "error: --checkpoint-every requires --checkpoint-out";
    exit 2
  | every, Some path ->
    Some { Recovery.Runner.every = Option.value every ~default:1; path }

let with_pool_opt domains f =
  match domains with
  | None -> f None
  | Some n ->
    Butterfly.Domain_pool.with_pool ~name:"cli" ~domains:n (fun p -> f (Some p))

let load_program path h =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let decoded =
    let m = Tracing.Trace_codec.binary_magic in
    if String.length raw >= String.length m && String.sub raw 0 (String.length m) = m
    then Tracing.Trace_codec.decode_binary raw
    else Tracing.Trace_codec.decode raw
  in
  match decoded with
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1
  | Ok p -> if h > 0 then Machine.Heartbeat.insert ~every:h p else p

(* Every lifeguard run reads its trace as a stream of epoch rows, in
   either trace format; a binary trace is walked in place.  [--epoch-size
   0] keeps the trace's embedded heartbeats as epoch separators. *)
let load_rows path =
  match
    Tracing.Row_source.of_string
      (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok src -> src
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

let every_of h = if h > 0 then Some h else None

(* One lifeguard run: the trace's rows stream into the lifeguard's engine,
   fresh or revived from a checkpoint, snapshotting on the way when asked.
   Returns the report's renderer. *)
let analyze ~domains ~relaxed ~every ~out ~resume lifeguard path h =
  let src = load_rows path in
  let checkpoint = checkpointing_of every out in
  let chunk = every_of h in
  let threads = Tracing.Row_source.threads src in
  let rows = Tracing.Row_source.iter_rows ?every:chunk src in
  with_pool_opt domains (fun pool ->
      let (Serve.Report.Engine e) =
        Serve.Report.engine ?pool ~relaxed lifeguard
      in
      let run () =
        match resume with
        | None -> Ok (Recovery.Runner.run e.ops ?checkpoint ~threads rows)
        | Some path ->
          Recovery.Runner.resume e.ops ?checkpoint ~path ~threads
            ~num_rows:(Tracing.Row_source.num_rows ?every:chunk src)
            rows
      in
      let r =
        match run () with
        | Ok r -> r
        | Error m | exception Recovery.Snapshot.Write_error m ->
          prerr_endline ("error: " ^ m);
          exit 2
      in
      fun ~json -> if json then e.json r ^ "\n" else e.text r)

(* The four lifeguard subcommands: one builder, told apart by the
   lifeguard, its doc string and TaintCheck's [--relaxed] flag. *)
let lifeguard_cmd lifeguard ~doc relaxed_arg =
  let run path h relaxed domains every out resume json stats obs_jsonl =
    with_stats ?obs_jsonl stats (fun () ->
        let render =
          analyze ~domains ~relaxed ~every ~out ~resume lifeguard path h
        in
        print_string (render ~json))
  in
  Cmd.v
    (Cmd.info (Recovery.Snapshot.lifeguard_to_string lifeguard) ~doc)
    Term.(const run $ trace_arg $ h_arg $ relaxed_arg $ domains_arg
          $ ckpt_every_arg $ ckpt_out_arg $ resume_arg $ json_arg $ stats_arg
          $ obs_jsonl_arg)

let no_relaxed = Term.const false

let addrcheck_cmd =
  lifeguard_cmd Recovery.Snapshot.Addrcheck
    ~doc:"Run butterfly AddrCheck on a trace file" no_relaxed

let initcheck_cmd =
  lifeguard_cmd Recovery.Snapshot.Initcheck
    ~doc:"Run butterfly InitCheck (uninitialized reads) on a trace file"
    no_relaxed

let taintcheck_cmd =
  lifeguard_cmd Recovery.Snapshot.Taintcheck
    ~doc:"Run butterfly TaintCheck on a trace file"
    Arg.(value & flag & info [ "relaxed" ]
         ~doc:"Use the relaxed-consistency termination condition.")

let racecheck_cmd =
  lifeguard_cmd Recovery.Snapshot.Racecheck
    ~doc:"Run butterfly RaceCheck (happens-before/lockset may-races) on a \
          trace file"
    no_relaxed

let lifeguard_enum =
  Arg.enum
    (List.map
       (fun lg -> (Recovery.Snapshot.lifeguard_to_string lg, lg))
       Recovery.Snapshot.[ Addrcheck; Initcheck; Taintcheck; Racecheck ])

let stats_cmd =
  let run path h domains lifeguard json prometheus obs_jsonl =
    let sink = Obs.Sink.memory () in
    let with_jsonl k =
      match obs_jsonl with
      | None -> k sink
      | Some jpath ->
        Out_channel.with_open_bin jpath (fun oc ->
            let ppf = Format.formatter_of_out_channel oc in
            let r = k (Obs.Sink.tee sink (Obs.Sink.jsonl ppf)) in
            Format.pp_print_flush ppf ();
            r)
    in
    with_jsonl (fun s ->
        Obs.with_sink s (fun () ->
            let (_ : json:bool -> string) =
              analyze ~domains ~relaxed:false ~every:None ~out:None
                ~resume:None lifeguard path h
            in
            ()));
    print_snapshot
      (if prometheus then `Prometheus else if json then `Json else `Text)
      (Obs.Sink.snapshot sink)
  in
  let prometheus_arg =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Print the registry in Prometheus text exposition format \
                   (0.0.4) instead of the table — the /metrics surface a \
                   scraper would collect.")
  in
  let lifeguard_arg =
    Arg.(value & opt lifeguard_enum Recovery.Snapshot.Addrcheck
         & info [ "lifeguard" ] ~docv:"LIFEGUARD"
         ~doc:"Which lifeguard to run: $(b,addrcheck) (default), \
               $(b,initcheck), $(b,taintcheck) or $(b,racecheck).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a lifeguard on a trace and print the full metric registry \
             (pipeline counters, window occupancy, per-phase timings)")
    Term.(const run $ trace_arg $ h_arg $ domains_arg $ lifeguard_arg
          $ json_arg $ prometheus_arg $ obs_jsonl_arg)

(* ------------------------------------------------------------------ *)
(* Differential fuzzing (lib/qa): generated grids through the sequential
   and pooled drivers × memory models plus the valid-ordering oracle,
   with greedy minimization of any counterexample. *)

let fuzz_cmd =
  let run lifeguard iterations seed shrink crash_at out replay serve stats
      obs_jsonl =
    with_stats ?obs_jsonl stats (fun () ->
        if serve then begin
          (* Frame-protocol fuzzing: mutate valid serving conversations
             and require clean per-session rejection from a live daemon. *)
          let config =
            { Qa.Serve_fuzz.default_config with iterations; seed }
          in
          let o = Qa.Serve_fuzz.run ~config () in
          Format.printf "fuzz serve: %a@." Qa.Serve_fuzz.pp_outcome o;
          if o.Qa.Serve_fuzz.failure <> None then exit 1
        end
        else
        let lifeguards =
          match lifeguard with
          | `All -> Qa.Differential.all_lifeguards
          | `One lg -> [ lg ]
        in
        let emit_repro grid =
          let text = Qa.Grid.encode grid in
          match out with
          | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc text);
            Format.printf "  repro written to %s@." path
          | None -> Format.printf "  repro trace:@.%s" text
        in
        let failed = ref false in
        (match replay with
        | Some path ->
          (* Re-run a serialized counterexample through the same battery. *)
          let p = load_program path 0 in
          List.iter
            (fun lg ->
              let mismatches = Qa.Engine.check_program lg p in
              Format.printf "replay %s %s: %d mismatch%s@." path
                (Qa.Differential.lifeguard_to_string lg)
                (List.length mismatches)
                (if List.length mismatches = 1 then "" else "es");
              if mismatches <> [] then begin
                failed := true;
                List.iter
                  (fun m ->
                    Format.printf "  %a@." Qa.Differential.pp_mismatch m)
                  mismatches
              end)
            lifeguards
        | None ->
          List.iter
            (fun lg ->
              let config =
                let crash =
                  Option.map
                    (fun crash_at -> { Qa.Engine.crash_at; every = 1 })
                    crash_at
                in
                {
                  Qa.Engine.default_config with
                  iterations;
                  seed;
                  shrink;
                  crash;
                }
              in
              let outcome = Qa.Engine.run ~config lg in
              match outcome.counterexample with
              | None ->
                Format.printf "fuzz %s: %d grids, 0 mismatches@."
                  (Qa.Differential.lifeguard_to_string lg)
                  outcome.grids
              | Some cx ->
                failed := true;
                Format.printf
                  "fuzz %s: counterexample at iteration %d (%d mismatch%s%s)@."
                  (Qa.Differential.lifeguard_to_string lg)
                  cx.iteration
                  (List.length cx.mismatches)
                  (if List.length cx.mismatches = 1 then "" else "es")
                  (if shrink then
                     Printf.sprintf ", shrunk in %d steps" cx.shrink_steps
                   else "");
                List.iter
                  (fun m ->
                    Format.printf "  %a@." Qa.Differential.pp_mismatch m)
                  cx.mismatches;
                emit_repro (Option.value cx.shrunk ~default:cx.grid))
            lifeguards);
        if !failed then exit 1)
  in
  let lifeguard_arg =
    let lg =
      Arg.enum
        [
          ("addrcheck", `One Qa.Differential.Addrcheck);
          ("initcheck", `One Qa.Differential.Initcheck);
          ("taintcheck", `One Qa.Differential.Taintcheck);
          ("racecheck", `One Qa.Differential.Racecheck);
          ("all", `All);
        ]
    in
    Arg.(value & opt lg `All & info [ "lifeguard" ] ~docv:"LIFEGUARD"
         ~doc:"Which lifeguard to fuzz: $(b,addrcheck), $(b,initcheck), \
               $(b,taintcheck), $(b,racecheck) or $(b,all) (default).")
  in
  let iterations_arg =
    Arg.(value & opt positive_int 100 & info [ "iterations" ] ~docv:"N"
         ~doc:"Grids to generate and check per lifeguard.")
  in
  let fuzz_seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ]
         ~doc:"Campaign seed: the same seed replays the same grids.")
  in
  let shrink_arg =
    Arg.(value & flag & info [ "shrink" ]
         ~doc:"Minimize the first failing grid (greedy delta debugging) \
               before reporting it.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Write the (shrunk) counterexample trace to $(docv) in \
               Trace_codec format instead of printing it; replay it with \
               $(b,fuzz --replay) $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"TRACE"
         ~doc:"Skip generation: run the differential battery on this trace \
               file (heartbeats in the file delimit the epochs).")
  in
  let serve_arg =
    Arg.(value & flag & info [ "serve" ]
         ~doc:"Fuzz the serving frame protocol instead of the analyses: \
               mutate valid daemon conversations (dropped, duplicated and \
               reordered frames, truncation, bit flips, injected garbage) \
               and play them at an in-process daemon over torn writes.  \
               Each stream must end in a report, one stable error frame or \
               a clean hang-up; the daemon must answer STATUS after every \
               stream, and an unmutated control tenant must still match \
               the batch report.  Uses $(b,--iterations) and $(b,--seed); \
               the analysis-fuzzing options are ignored.")
  in
  let crash_at_arg =
    let crash_conv =
      let parse s =
        if String.equal s "random" then Ok None
        else
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok (Some n)
          | Some _ | None ->
            Error (`Msg "expected 'random' or a non-negative epoch number")
      in
      let print ppf = function
        | None -> Format.pp_print_string ppf "random"
        | Some n -> Format.pp_print_int ppf n
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt (some crash_conv) None & info [ "crash-at" ] ~docv:"EPOCH"
         ~doc:"Also exercise checkpoint/restore on every generated grid: \
               checkpoint each epoch, kill the run at $(docv) ($(b,random) \
               draws a seeded epoch per iteration), resume from the latest \
               snapshot and require a byte-identical report.  Ignored with \
               $(b,--replay).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the butterfly lifeguards: random grids \
             through the sequential and pooled drivers plus the \
             valid-ordering soundness oracle on every memory model; exits \
             non-zero on mismatch")
    Term.(const run $ lifeguard_arg $ iterations_arg $ fuzz_seed_arg
          $ shrink_arg $ crash_at_arg $ out_arg $ replay_arg $ serve_arg
          $ stats_arg $ obs_jsonl_arg)

(* ------------------------------------------------------------------ *)
(* Introspection: dependence-graph / timeline rendering and the obs
   dashboard (lib/viz). *)

let viz_cmd =
  let run trace h focus dot graph_json dashboard obs title refresh =
    let write target s =
      match target with
      | "-" -> print_string s
      | path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s)
    in
    let want_graph = dot <> None || graph_json <> None in
    if (not want_graph) && dashboard = None then begin
      prerr_endline
        "error: nothing to do (pass --dot, --graph-json or --dashboard)";
      exit 2
    end;
    (if want_graph then
       match trace with
       | None ->
         prerr_endline "error: --dot/--graph-json need a TRACE argument";
         exit 2
       | Some path ->
         let p = load_program path h in
         let g = Viz.Butterfly_graph.of_epochs (Butterfly.Epochs.of_program p) in
         let g =
           match focus with
           | None -> g
           | Some l ->
             if l < 0 || l >= g.Viz.Butterfly_graph.num_epochs then begin
               Printf.eprintf "error: --focus %d out of range (%d epochs)\n" l
                 g.Viz.Butterfly_graph.num_epochs;
               exit 2
             end;
             Viz.Butterfly_graph.restrict g ~epoch:l
         in
         Option.iter (fun t -> write t (Viz.Butterfly_graph.to_dot g)) dot;
         Option.iter
           (fun t ->
             write t
               (Obs.Json.to_string (Viz.Butterfly_graph.to_json g) ^ "\n"))
           graph_json);
    match dashboard with
    | None -> ()
    | Some target -> (
      match obs with
      | None ->
        prerr_endline "error: --dashboard requires --obs EVENTS.jsonl";
        exit 2
      | Some path ->
        let contents = In_channel.with_open_bin path In_channel.input_all in
        let events, bad = Viz.Dashboard.parse_events contents in
        if bad > 0 then
          Printf.eprintf "warning: skipped %d malformed event line%s\n%!" bad
            (if bad = 1 then "" else "s");
        write target (Viz.Dashboard.render ?title ?refresh events))
  in
  let trace_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"Trace file (Trace_codec format); required for $(b,--dot) / \
               $(b,--graph-json).")
  in
  let focus_arg =
    Arg.(value & opt (some int) None & info [ "focus" ] ~docv:"EPOCH"
         ~doc:"Restrict the graph to the butterflies of one body epoch — \
               the classic wings/head/SOS picture instead of the whole grid.")
  in
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
         ~doc:"Write the dependence graph as Graphviz DOT to $(docv) \
               ($(b,-) for stdout).")
  in
  let graph_json_arg =
    Arg.(value & opt (some string) None & info [ "graph-json" ] ~docv:"FILE"
         ~doc:"Write the dependence graph and epoch timeline as JSON to \
               $(docv) ($(b,-) for stdout).")
  in
  let dashboard_arg =
    Arg.(value & opt (some string) None & info [ "dashboard" ] ~docv:"FILE"
         ~doc:"Render a self-contained HTML dashboard (inline SVG, no \
               scripts, no network) to $(docv) ($(b,-) for stdout) from the \
               obs JSONL stream given with $(b,--obs).")
  in
  let obs_arg =
    Arg.(value & opt (some file) None & info [ "obs" ] ~docv:"EVENTS"
         ~doc:"Obs JSONL event stream (written by $(b,--obs-jsonl)) backing \
               $(b,--dashboard).")
  in
  let title_arg =
    Arg.(value & opt (some string) None & info [ "title" ] ~docv:"TITLE"
         ~doc:"Dashboard page title.")
  in
  let refresh_arg =
    Arg.(value & opt (some positive_int) None & info [ "refresh" ] ~docv:"SECONDS"
         ~doc:"Add a meta-refresh so a browser re-reads the dashboard every \
               $(docv) seconds — live view of a stream being appended to.")
  in
  Cmd.v
    (Cmd.info "viz"
       ~doc:"Render butterfly introspection artifacts: the per-block \
             dependence graph (wings, head, SOS chain) as DOT/JSON, and an \
             HTML dashboard over a structured telemetry stream")
    Term.(const run $ trace_opt_arg $ h_arg $ focus_arg $ dot_arg
          $ graph_json_arg $ dashboard_arg $ obs_arg $ title_arg $ refresh_arg)

let generate_cmd =
  let run name threads scale seed binary stats =
    with_stats stats (fun () ->
        match Workloads.Registry.find name with
        | None ->
          prerr_endline
            ("unknown workload (try: "
            ^ String.concat ", " Workloads.Registry.names
            ^ ")");
          exit 1
        | Some profile ->
          let p =
            Workloads.Workload.generate_program profile ~threads ~scale ~seed
          in
          print_string
            (if binary then Tracing.Trace_codec.encode_binary p
             else Tracing.Trace_codec.encode p))
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
         ~doc:"Benchmark name (e.g. ocean).")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Application threads.")
  in
  let scale2_arg =
    Arg.(value & opt int 4000 & info [ "scale" ]
         ~doc:"Instructions per thread.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ] ~doc:"Emit the compact binary format.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Emit a synthetic benchmark trace to stdout")
    Term.(const run $ name_arg $ threads_arg $ scale2_arg $ seed_arg
          $ binary_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* The multi-tenant streaming daemon (lib/serve) and its client. *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket domains state_dir every idle max_sessions max_queued stats
      obs_jsonl =
    with_stats ?obs_jsonl stats (fun () ->
        let cfg =
          try
            Serve.Daemon.config ~socket ?domains ?state_dir
              ?checkpoint_every:every ?evict_idle_after:idle
              ~policy:(Serve.Policy.v ~max_sessions ~max_queued)
              ()
          with Invalid_argument m ->
            prerr_endline ("error: " ^ m);
            exit 2
        in
        let stopping = ref `Run in
        let on_signal _ = stopping := `Quit in
        List.iter
          (fun s ->
            try Sys.set_signal s (Sys.Signal_handle on_signal)
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        Serve.Daemon.run ~stop:(fun () -> !stopping) cfg)
  in
  let state_dir_arg =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Directory for session-keyed snapshots — enables periodic \
               checkpointing, idle/oversubscription eviction, and \
               transparent resume on reconnect.")
  in
  let ckpt_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Snapshot every session each $(docv) fed epochs (crash \
                   survivability); needs $(b,--state-dir).")
  in
  let idle_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "evict-idle-after" ] ~docv:"TICKS"
             ~doc:"Evict a disconnected session to its snapshot after \
                   $(docv) scheduler ticks without activity; needs \
                   $(b,--state-dir).")
  in
  let max_sessions_arg =
    Arg.(value & opt positive_int 64 & info [ "max-sessions" ] ~docv:"N"
         ~doc:"Live session cap; beyond it new tenants evict the \
               longest-idle detached session, or are rejected.")
  in
  let max_queued_arg =
    Arg.(value & opt positive_int 64 & info [ "max-queued" ] ~docv:"ROWS"
         ~doc:"Per-session backpressure bound: stop reading a connection \
               whose unfed-row queue reaches $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant streaming monitor daemon on a Unix-domain \
             socket; one analysis session per tenant, multiplexed over a \
             shared domain pool, until SIGINT/SIGTERM")
    Term.(const run $ socket_arg $ domains_arg $ state_dir_arg $ ckpt_arg
          $ idle_arg $ max_sessions_arg $ max_queued_arg $ stats_arg
          $ obs_jsonl_arg)

let client_cmd =
  let run socket status_only tenant lifeguard trace h relaxed driver
      write_chunk stats obs_jsonl =
    with_stats ?obs_jsonl stats (fun () ->
        if status_only then (
          match Serve.Client.status ~socket () with
          | Ok s -> print_endline s
          | Error m ->
            prerr_endline ("error: " ^ m);
            exit 1)
        else
          match (tenant, trace) with
          | Some tenant, Some path -> (
            let src = load_rows path in
            let rows = ref [] in
            Tracing.Row_source.iter_rows ?every:(every_of h) src (fun row ->
                rows := row :: !rows);
            let rows = Array.of_list (List.rev !rows) in
            let hello =
              { Serve.Wire.tenant; lifeguard; driver; state = `Functional;
                relaxed; threads = Tracing.Row_source.threads src }
            in
            match
              Serve.Client.run_tenant ~socket ?write_chunk ~hello rows
            with
            | Ok (resumed_from, report) ->
              (* The frontier note goes to stderr: stdout is exactly the
                 report line, so it diffs against the batch [--json]. *)
              if resumed_from > 0 then
                Format.eprintf "resumed from epoch %d@." resumed_from;
              print_endline report
            | Error m ->
              prerr_endline ("error: " ^ m);
              exit 1)
          | _ ->
            prerr_endline
              "error: client needs --tenant and TRACE (or --status)";
            exit 2)
  in
  let status_flag =
    Arg.(value & flag & info [ "status" ]
         ~doc:"Query the daemon's STATUS endpoint (session cards plus the \
               Prometheus registry) instead of streaming a trace.")
  in
  let tenant_arg =
    Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"ID"
         ~doc:"Session key ([A-Za-z0-9_-]{1,64}); reconnecting with the \
               same $(docv) resumes the session.")
  in
  let lifeguard_arg =
    Arg.(value & opt lifeguard_enum Recovery.Snapshot.Addrcheck
         & info [ "lifeguard" ] ~docv:"LIFEGUARD"
             ~doc:"Analysis to request: $(b,addrcheck) (default), \
                   $(b,initcheck), $(b,taintcheck) or $(b,racecheck).")
  in
  let trace_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"Trace file (Trace_codec text or binary format).")
  in
  let client_driver_arg =
    let d = Arg.enum [ ("sequential", `Sequential); ("pooled", `Pooled) ] in
    Arg.(value & opt d `Sequential & info [ "driver" ] ~docv:"DRIVER"
         ~doc:"Execution driver the daemon should run this session with; \
               $(b,pooled) needs a daemon started with $(b,--domains).  The \
               report is identical for either driver.")
  in
  let relaxed_arg =
    Arg.(value & flag & info [ "relaxed" ]
         ~doc:"TaintCheck's relaxed-consistency termination condition.")
  in
  let chunk_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "chunk-bytes" ] ~docv:"N"
             ~doc:"Cap every socket write to $(docv) bytes, shredding \
                   frames across reads (protocol-robustness testing).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Stream a trace to a running daemon as one tenant and print the \
             report — byte-identical to the batch subcommand's $(b,--json) \
             line — or query the daemon's status")
    Term.(const run $ socket_arg $ status_flag $ tenant_arg $ lifeguard_arg
          $ trace_opt_arg $ h_arg $ relaxed_arg $ client_driver_arg $ chunk_arg $ stats_arg $ obs_jsonl_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "butterfly_cli" ~version:"1.0"
             ~doc:"Butterfly analysis: experiments and trace checking")
          [
            table1_cmd; figure11_cmd; figure12_cmd; figure13_cmd;
            sensitivity_cmd; addrcheck_cmd; taintcheck_cmd; initcheck_cmd;
            racecheck_cmd; stats_cmd; viz_cmd; generate_cmd; fuzz_cmd;
            serve_cmd; client_cmd;
          ]))
