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

(* ------------------------------------------------------------------ *)
(* The lifeguard table. *)

module R = Recovery.Runner
module O = Lifeguards.Oracle

type pool = Butterfly.Domain_pool.t

type oracle =
  model:Memmodel.Consistency.t ->
  cap:int ->
  samples:int ->
  seed:int ->
  Tracing.Program.t ->
  O.verdict

type ('s, 'r) entry = {
  tag : Recovery.Snapshot.lifeguard;
  ops : ?pool:pool -> relaxed:bool -> unit -> ('s, 'r) R.ops;
  json : 'r -> string;
  text : 'r -> string;
  variants : (string * (?pool:pool -> unit -> ('s, 'r) R.ops)) list;
  reference : (Butterfly.Epochs.t -> 'r) option;
  oracle : oracle;
}

type t = Entry : ('s, 'r) entry -> t

let text pp r = Format.asprintf "%a" pp r

(* A lifeguard without analysis flags: one unlabelled variant. *)
let plain tag build json pp ?reference oracle =
  Entry
    {
      tag;
      ops = (fun ?pool ~relaxed:_ () -> build ?pool ());
      json;
      text = text pp;
      variants = [ ("", fun ?pool () -> build ?pool ()) ];
      reference;
      oracle;
    }

let addrcheck_entry =
  plain Addrcheck R.addr_ops addrcheck addrcheck_text
    (fun ~model ~cap ~samples ~seed p ->
      O.addrcheck_zero_false_negatives ~model ~cap ~samples ~seed p)

let initcheck_entry =
  plain Initcheck R.init_ops initcheck initcheck_text
    (fun ~model ~cap ~samples ~seed p ->
      O.initcheck_zero_false_negatives ~model ~cap ~samples ~seed p)

let taintcheck_variants =
  Lifeguards.Taintcheck.
    [
      ("sc,two-phase", { sequential = true; two_phase = true });
      ("relaxed,two-phase", { sequential = false; two_phase = true });
      ("sc,one-phase", { sequential = true; two_phase = false });
    ]

let taintcheck_entry =
  let ops params ?pool () =
    R.of_engine (module Lifeguards.Taintcheck.Engine) Taintcheck
      Lifeguards.Taintcheck.fingerprint ?pool params
  in
  Entry
    {
      tag = Taintcheck;
      ops =
        (fun ?pool ~relaxed () ->
          ops { sequential = not relaxed; two_phase = true } ?pool ());
      json = taintcheck;
      text = text taintcheck_text;
      variants =
        List.map (fun (label, params) -> (label, ops params)) taintcheck_variants;
      reference = None;
      oracle =
        (fun ~model ~cap ~samples ~seed p ->
          (* Relaxed models need the relaxed termination condition. *)
          let sequential =
            Memmodel.Consistency.equal model Memmodel.Consistency.Sequential
          in
          O.taintcheck_zero_false_negatives ~model ~sequential ~cap ~samples
            ~seed p);
    }

let racecheck_entry =
  plain Racecheck R.race_ops racecheck racecheck_text
    ~reference:Lifeguards.Racecheck_seq.check
    (fun ~model ~cap ~samples ~seed p ->
      if Memmodel.Consistency.equal model Memmodel.Consistency.Sequential then
        O.racecheck_zero_false_negatives ~model ~cap ~samples ~seed p
      else
        (* The race oracle's happens-before graph assumes program order
           is respected, so relaxed replays are not a sound ground truth;
           skip them (see
           {!Lifeguards.Oracle.racecheck_zero_false_negatives}). *)
        {
          O.sound = true;
          orderings_checked = 0;
          exhaustive = true;
          missed = [];
        })

let find : Recovery.Snapshot.lifeguard -> t = function
  | Addrcheck -> addrcheck_entry
  | Initcheck -> initcheck_entry
  | Taintcheck -> taintcheck_entry
  | Racecheck -> racecheck_entry
