module J = Obs.Json

let json_of_instr_id (id : Butterfly.Instr_id.t) =
  J.Obj
    [ ("epoch", J.Int id.epoch); ("tid", J.Int id.tid);
      ("index", J.Int id.index) ]

let json_of_intervals is =
  J.List
    (List.map
       (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ])
       (Butterfly.Interval_set.intervals is))

let lifeguard_json ~lifeguard ~checked ~flagged ~errors =
  J.Obj
    [
      ("lifeguard", J.String lifeguard);
      ("checked", J.Int checked);
      ("flagged", J.Int flagged);
      ("errors", J.List errors);
    ]

let json_of_addrcheck_error (e : Lifeguards.Addrcheck.error) =
  let kind =
    match e.kind with
    | Lifeguards.Addrcheck.Unallocated_access -> "unallocated_access"
    | Unallocated_free -> "unallocated_free"
    | Double_alloc -> "double_alloc"
    | Metadata_race -> "metadata_race"
  in
  let where =
    match e.where with
    | `Instr id -> [ ("at", json_of_instr_id id) ]
    | `Block (l, t) ->
      [ ("block", J.Obj [ ("epoch", J.Int l); ("tid", J.Int t) ]) ]
  in
  J.Obj
    ([ ("kind", J.String kind); ("addrs", json_of_intervals e.addrs) ] @ where)

let json_of_initcheck_error (e : Lifeguards.Initcheck.error) =
  J.Obj
    [ ("kind", J.String "uninitialized_read");
      ("addrs", json_of_intervals e.addrs); ("at", json_of_instr_id e.id) ]

let json_of_taintcheck_error (e : Lifeguards.Taintcheck.error) =
  J.Obj
    [ ("kind", J.String "tainted_sink"); ("sink", J.Int e.sink);
      ("at", json_of_instr_id e.id) ]

let json_of_race (r : Lifeguards.Racecheck.race) =
  let kind = function Lifeguards.Racecheck.R -> "read" | W -> "write" in
  J.Obj
    [ ("kind", J.String "may_race");
      ("addr", J.Int r.addr);
      ("a", json_of_instr_id r.a); ("a_kind", J.String (kind r.a_kind));
      ("b", json_of_instr_id r.b); ("b_kind", J.String (kind r.b_kind)) ]

let sum_block_stats stats f =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc s -> acc + f s) acc row)
    0 stats

let addrcheck (r : Lifeguards.Addrcheck.report) =
  J.to_string
    (lifeguard_json ~lifeguard:"addrcheck" ~checked:r.total_accesses
       ~flagged:r.flagged_accesses
       ~errors:(List.map json_of_addrcheck_error r.errors))

let initcheck (r : Lifeguards.Initcheck.report) =
  J.to_string
    (lifeguard_json ~lifeguard:"initcheck" ~checked:r.total_reads
       ~flagged:r.flagged_reads
       ~errors:(List.map json_of_initcheck_error r.errors))

let taintcheck (r : Lifeguards.Taintcheck.report) =
  let checked =
    sum_block_stats r.block_stats
      (fun (s : Lifeguards.Taintcheck.block_stats) -> s.checks_resolved)
  in
  J.to_string
    (lifeguard_json ~lifeguard:"taintcheck" ~checked
       ~flagged:(List.length r.errors)
       ~errors:(List.map json_of_taintcheck_error r.errors))

let racecheck (r : Lifeguards.Racecheck.report) =
  let checked =
    sum_block_stats r.block_stats
      (fun (s : Lifeguards.Racecheck.block_stats) -> s.pairs_checked)
  in
  J.to_string
    (lifeguard_json ~lifeguard:"racecheck" ~checked
       ~flagged:(List.length r.races)
       ~errors:(List.map json_of_race r.races))

(* Text renderings, as the lifeguard subcommands print them without
   [--json]. *)

let addrcheck_text ppf (r : Lifeguards.Addrcheck.report) =
  Format.fprintf ppf "checked %d memory events; flagged %d@." r.total_accesses
    r.flagged_accesses;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Lifeguards.Addrcheck.pp_error e)
    r.errors;
  if r.errors = [] then Format.fprintf ppf "  no errors@."

let initcheck_text ppf (r : Lifeguards.Initcheck.report) =
  Format.fprintf ppf "checked %d reads; flagged %d@." r.total_reads
    r.flagged_reads;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Lifeguards.Initcheck.pp_error e)
    r.errors;
  if r.errors = [] then Format.fprintf ppf "  no uninitialized reads@."

let taintcheck_text ppf (r : Lifeguards.Taintcheck.report) =
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Lifeguards.Taintcheck.pp_error e)
    r.errors;
  if r.errors = [] then Format.fprintf ppf "  no tainted sinks@."

let racecheck_text ppf (r : Lifeguards.Racecheck.report) =
  let checked =
    sum_block_stats r.block_stats
      (fun (s : Lifeguards.Racecheck.block_stats) -> s.pairs_checked)
  in
  Format.fprintf ppf "checked %d conflicting pairs; flagged %d may-races@."
    checked (List.length r.races);
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Lifeguards.Racecheck.pp_race e)
    r.races;
  if r.races = [] then Format.fprintf ppf "  no races@."

type engine =
  | Engine : {
      ops : ('s, 'r) Recovery.Runner.ops;
      json : 'r -> string;
      text : 'r -> string;
    }
      -> engine

let engine ?pool ~relaxed lifeguard =
  let module R = Recovery.Runner in
  let mk ops json text = Engine { ops; json; text = Format.asprintf "%a" text } in
  match (lifeguard : Recovery.Snapshot.lifeguard) with
  | Addrcheck -> mk (R.addr_ops ?pool ()) addrcheck addrcheck_text
  | Initcheck -> mk (R.init_ops ?pool ()) initcheck initcheck_text
  | Taintcheck ->
    mk
      (R.taint_ops ?pool ~sequential:(not relaxed) ())
      taintcheck taintcheck_text
  | Racecheck -> mk (R.race_ops ?pool ()) racecheck racecheck_text
