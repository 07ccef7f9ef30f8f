(* End-to-end monitoring benchmark.

     e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--cli PATH]
     e2e.exe --smoke [--cli PATH]
     e2e.exe compare --cli-a A --cli-b B [--workload W] [--pairs N]
             [--seed N] [--seconds S]

   A run prints, per workload, a comment line and then one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  --smoke runs
   every workload once on tiny inputs, traced and untraced, and exits
   non-zero on any failed job or output check.  compare runs paired
   measurements of two CLI binaries (see README.md). *)

let default_seconds = 20
let default_cli = "_build/default/bin/butterfly_cli.exe"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

let check_cli cli =
  try Unix.access cli [ Unix.X_OK ]
  with Unix.Unix_error _ -> die "no executable CLI at %s (see --cli)" cli

let selected = function
  | "" -> Suite.workloads
  | name -> (
    match Suite.find name with
    | Some w -> [ w ]
    | None ->
      die "unknown workload %s (one of: %s)" name
        (String.concat ", " (List.map (fun (w : Suite.workload) -> w.name) Suite.workloads)))

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let quote s = "\"" ^ String.escaped s ^ "\""

let result_json (r : Suite.result) metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (mt : Suite.metric) ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|} (quote mt.name)
              (number (List.assoc mt.name r.values))
              (quote mt.unit))
          metrics))

let run_main args =
  let workload = ref "" and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref 0 and cli = ref default_cli and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds,
       Printf.sprintf "S  length of the measured phase (default %d)" default_seconds);
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics");
      ("--cli", Arg.Set_string cli, "PATH  butterfly_cli binary under test");
      ("--smoke", Arg.Set smoke, " one round of every workload on tiny inputs");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "e2e.exe [options]"
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds < 0 then die "--seconds must be >= 0";
  check_cli !cli;
  let workloads = selected !workload in
  if !smoke then begin
    let failed =
      List.fold_left
        (fun failed (w : Suite.workload) ->
          List.fold_left
            (fun failed trace ->
              let r =
                Suite.run ~cli:!cli ~size:Suite.Smoke ~seed:!seed ~seconds:0.
                  ~trace w
              in
              Printf.printf "smoke %s%s: %d attempted, %d failed\n%!" w.name
                (if trace then " (traced)" else "")
                r.attempted r.failed;
              failed + r.failed)
            failed [ false; true ])
        0 workloads
    in
    exit (if failed = 0 then 0 else 1)
  end;
  List.iter
    (fun (w : Suite.workload) ->
      let trace = !trace = 1 in
      let r =
        Suite.run ~cli:!cli ~size:Suite.Full ~seed:!seed
          ~seconds:(float_of_int !seconds) ~trace w
      in
      Printf.printf "# %s seed %d%s: %d samples over %d rounds\n" w.name !seed
        (if trace then " traced" else "")
        r.samples r.rounds;
      print_endline
        (result_json r (if trace then Suite.per_layer else Suite.end_to_end)))
    workloads

(* ------------------------------------------------------------------ *)
(* Paired comparison of two binaries *)

let compare_main args =
  let cli_a = ref "" and cli_b = ref "" and workload = ref "" in
  let pairs = ref 10 and seed = ref 1 and seconds = ref default_seconds in
  let specs =
    [
      ("--cli-a", Arg.Set_string cli_a, "PATH  the parent's butterfly_cli");
      ("--cli-b", Arg.Set_string cli_b, "PATH  the change's butterfly_cli");
      ("--workload", Arg.Set_string workload, "W  one workload (default: all)");
      ("--pairs", Arg.Set_int pairs, "N  pairs of runs (default 10)");
      ("--seed", Arg.Set_int seed, "N  seed of the first pair; pair i uses N+i");
      ("--seconds", Arg.Set_int seconds, "S  measured phase per run");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 1) args specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "e2e.exe compare --cli-a A --cli-b B [options]"
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  check_cli !cli_a;
  check_cli !cli_b;
  if !pairs < 1 then die "--pairs must be >= 1";
  List.iter
    (fun (w : Suite.workload) ->
      let a = ref [] and b = ref [] in
      for i = 0 to !pairs - 1 do
        let measure cli =
          Suite.run ~cli ~size:Suite.Full ~seed:(!seed + i)
            ~seconds:(float_of_int !seconds) ~trace:false w
        in
        (* Alternate which binary runs first. *)
        if i mod 2 = 0 then begin
          a := measure !cli_a :: !a;
          b := measure !cli_b :: !b
        end
        else begin
          b := measure !cli_b :: !b;
          a := measure !cli_a :: !a
        end
      done;
      let a = List.rev !a and b = List.rev !b in
      let failed rs = List.fold_left (fun n (r : Suite.result) -> n + r.failed) 0 rs in
      let metric (mt : Suite.metric) =
        let vals rs = List.map (fun (r : Suite.result) -> List.assoc mt.name r.values) rs in
        let va = vals a and vb = vals b in
        let q xs = (Stats.quantile 0.25 xs, Stats.median xs, Stats.quantile 0.75 xs) in
        let (a1, am, a3) = q va and (b1, bm, b3) = q vb in
        let better x y = match mt.better with Suite.Lower -> x < y | Higher -> x > y in
        let wins = List.length (List.filter Fun.id (List.map2 better vb va)) in
        let worse_by =
          match mt.better with
          | Lower -> Stats.ratio (bm -. am) am
          | Higher -> Stats.ratio (am -. bm) am
        in
        let verdict =
          if Stats.ratio (a3 -. a1) am > mt.bound then "unresolved"
          else if worse_by > mt.bound then "regressed"
          else if
            float_of_int wins >= 0.9 *. float_of_int !pairs
            && Float.abs (bm -. am) > a3 -. a1
          then "improved"
          else "unchanged"
        in
        Printf.sprintf
          {|%s: {"unit": %s, "a": [%s, %s, %s], "b": [%s, %s, %s], "b_won": %s, "verdict": %s}|}
          (quote mt.name) (quote mt.unit) (number a1) (number am) (number a3)
          (number b1) (number bm) (number b3)
          (number (float_of_int wins /. float_of_int !pairs))
          (quote verdict)
      in
      Printf.printf
        {|{"workload": %s, "pairs": %d, "failed_a": %d, "failed_b": %d, "metrics": {%s}}|}
        (quote w.name) !pairs (failed a) (failed b)
        (String.concat ", " (List.map metric Suite.end_to_end));
      print_newline ())
    (selected !workload)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Proc.start_server ();
  at_exit Proc.stop_server;
  (* Turn SIGINT/SIGTERM into an exception, so the daemon is stopped and
     the work directory removed on the way out. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigint; Sys.sigterm ];
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "compare" then
    compare_main Sys.argv
  else run_main Sys.argv
