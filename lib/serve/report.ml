(* Each renderer writes its line straight into one buffer: the header,
   then one object per error.  Every key and string value is a literal
   with nothing to escape, so the line is exactly what rendering the
   same object through [Obs.Json] prints. *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* The literal [lit] (a key such as [",\"tid\":"], or punctuation), then
   [n]. *)
let add_int_after b lit n =
  Buffer.add_string b lit;
  add_int b n

let add_id b key (id : Butterfly.Instr_id.t) =
  Buffer.add_string b key;
  add_int_after b "{\"epoch\":" id.epoch;
  add_int_after b ",\"tid\":" id.tid;
  add_int_after b ",\"index\":" id.index;
  Buffer.add_char b '}'

let add_intervals b is =
  Buffer.add_string b ",\"addrs\":[";
  ignore
    (Butterfly.Interval_set.fold_intervals
       (fun lo hi first ->
         if not first then Buffer.add_char b ',';
         add_int_after b "[" lo;
         add_int_after b "," hi;
         Buffer.add_char b ']';
         false)
       is true);
  Buffer.add_char b ']'

(* The whole line: the header, [add_error] on each error (comma
   separated) and the closing brackets.  [width] guesses the bytes per
   error, so that the buffer rarely grows. *)
let render ~lifeguard ~checked ~flagged ~width add_error errors =
  let b = Buffer.create (64 + (width * List.length errors)) in
  Buffer.add_string b "{\"lifeguard\":\"";
  Buffer.add_string b lifeguard;
  add_int_after b "\",\"checked\":" checked;
  add_int_after b ",\"flagged\":" flagged;
  Buffer.add_string b ",\"errors\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      add_error b e)
    errors;
  Buffer.add_string b "]}";
  Buffer.contents b

let add_addrcheck_error b (e : Lifeguards.Addrcheck.error) =
  Buffer.add_string b
    (match e.kind with
    | Lifeguards.Addrcheck.Unallocated_access ->
      "{\"kind\":\"unallocated_access\""
    | Unallocated_free -> "{\"kind\":\"unallocated_free\""
    | Double_alloc -> "{\"kind\":\"double_alloc\""
    | Metadata_race -> "{\"kind\":\"metadata_race\"");
  add_intervals b e.addrs;
  (match e.where with
  | `Instr id -> add_id b ",\"at\":" id
  | `Block (l, t) ->
    add_int_after b ",\"block\":{\"epoch\":" l;
    add_int_after b ",\"tid\":" t;
    Buffer.add_char b '}');
  Buffer.add_char b '}'

let add_initcheck_error b (e : Lifeguards.Initcheck.error) =
  Buffer.add_string b "{\"kind\":\"uninitialized_read\"";
  add_intervals b e.addrs;
  add_id b ",\"at\":" e.id;
  Buffer.add_char b '}'

let add_taintcheck_error b (e : Lifeguards.Taintcheck.error) =
  add_int_after b "{\"kind\":\"tainted_sink\",\"sink\":" e.sink;
  add_id b ",\"at\":" e.id;
  Buffer.add_char b '}'

let add_race b (r : Lifeguards.Racecheck.race) =
  let kind = function
    | Lifeguards.Racecheck.R -> "\"read\""
    | W -> "\"write\""
  in
  add_int_after b "{\"kind\":\"may_race\",\"addr\":" r.addr;
  add_id b ",\"a\":" r.a;
  Buffer.add_string b ",\"a_kind\":";
  Buffer.add_string b (kind r.a_kind);
  add_id b ",\"b\":" r.b;
  Buffer.add_string b ",\"b_kind\":";
  Buffer.add_string b (kind r.b_kind);
  Buffer.add_char b '}'

let sum_block_stats stats f =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc s -> acc + f s) acc row)
    0 stats

let addrcheck (r : Lifeguards.Addrcheck.report) =
  render ~lifeguard:"addrcheck" ~checked:r.total_accesses
    ~flagged:r.flagged_accesses ~width:100 add_addrcheck_error r.errors

let initcheck (r : Lifeguards.Initcheck.report) =
  render ~lifeguard:"initcheck" ~checked:r.total_reads ~flagged:r.flagged_reads
    ~width:100 add_initcheck_error r.errors

let taintcheck (r : Lifeguards.Taintcheck.report) =
  let checked =
    sum_block_stats r.block_stats
      (fun (s : Lifeguards.Taintcheck.block_stats) -> s.checks_resolved)
  in
  render ~lifeguard:"taintcheck" ~checked ~flagged:(List.length r.errors)
    ~width:80 add_taintcheck_error r.errors

let racecheck (r : Lifeguards.Racecheck.report) =
  let checked =
    sum_block_stats r.block_stats
      (fun (s : Lifeguards.Racecheck.block_stats) -> s.pairs_checked)
  in
  render ~lifeguard:"racecheck" ~checked ~flagged:(List.length r.races)
    ~width:144 add_race r.races

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
