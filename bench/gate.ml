(* Bench regression gate over the committed BENCH_*.json trajectory.

   Usage: gate.exe BASELINE.json CURRENT.json

   Both files are the `bench/main.exe --json` output: one array of
   {name; runs; ns_per_run}.  The gate enforces one rule and exits
   non-zero (listing every violation) if it is broken:

   Trajectory: no benchmark group may regress by more than 25% against
   the previous committed point.  A group's regression is the geometric
   mean of the per-benchmark ratios over the names present in both
   files — robust to one noisy entry, sensitive to a whole group
   drifting.  Names only in one file (benches added or retired between
   points) are reported but don't gate. *)

let fail_usage () =
  prerr_endline "usage: gate.exe BASELINE.json CURRENT.json";
  exit 2

let read_measurements path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string contents with
  | Error m ->
    Printf.eprintf "gate: %s: %s\n" path m;
    exit 2
  | Ok (Obs.Json.List entries) ->
    List.filter_map
      (fun e ->
        match e with
        | Obs.Json.Obj fields -> (
          let str k =
            match List.assoc_opt k fields with
            | Some (Obs.Json.String s) -> Some s
            | _ -> None
          in
          let num k =
            match List.assoc_opt k fields with
            | Some (Obs.Json.Float f) -> Some f
            | Some (Obs.Json.Int n) -> Some (float_of_int n)
            | _ -> None
          in
          match (str "name", num "ns_per_run") with
          | Some name, Some ns when ns > 0. && Float.is_finite ns ->
            Some (name, ns)
          | _ -> None)
        | _ -> None)
      entries
  | Ok _ ->
    Printf.eprintf "gate: %s: expected a JSON array\n" path;
    exit 2

let group_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

let max_group_regression = 1.25

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ -> fail_usage ()
  in
  let baseline = read_measurements baseline_path in
  let current = read_measurements current_path in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in

  (* Per-group geometric mean of current/baseline ratios. *)
  let groups =
    List.sort_uniq compare (List.map (fun (n, _) -> group_of n) current)
  in
  List.iter
    (fun g ->
      let ratios =
        List.filter_map
          (fun (n, cur) ->
            if group_of n <> g then None
            else
              match List.assoc_opt n baseline with
              | Some base -> Some (cur /. base)
              | None ->
                Printf.printf "note: %s only in %s (not gated)\n" n
                  current_path;
                None)
          current
      in
      match ratios with
      | [] -> ()
      | _ ->
        let geomean =
          exp
            (List.fold_left (fun acc r -> acc +. log r) 0. ratios
            /. float_of_int (List.length ratios))
        in
        Printf.printf "group %-28s %d benches, ratio %.3fx\n" g
          (List.length ratios) geomean;
        if geomean > max_group_regression then
          violate "group %s regressed %.1f%% vs %s (limit %.0f%%)" g
            ((geomean -. 1.) *. 100.)
            baseline_path
            ((max_group_regression -. 1.) *. 100.))
    groups;

  match List.rev !violations with
  | [] -> print_endline "bench gate: OK"
  | vs ->
    List.iter (fun v -> Printf.eprintf "bench gate: FAIL: %s\n" v) vs;
    exit 1
