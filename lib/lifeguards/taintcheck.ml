module AS = Set.Make (Int)
module Id = Butterfly.Instr_id

(* Int-keyed tables for the per-block indexes and LASTCHECK verdicts.
   Addresses are 8-byte aligned, so the hash must mix the bits: the
   identity would crowd every key into an eighth of the buckets. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type rhs = Bot | Top | Inherit of int list
type tf = { tf_id : Id.t; dst : int; rhs : rhs }

type error = { id : Id.t; sink : Tracing.Addr.t }
type block_stats = { instrs : int; mem_events : int; checks_resolved : int }

type report = {
  errors : error list;
  sos_tainted : Tracing.Addr.t list array;
  block_stats : block_stats array array;
}

(* Test-only fault injection.  The QA mutation smoke test flips this to
   prove the differential fuzz engine detects an unsound meet: dropping a
   binop's second source makes butterfly TaintCheck miss taint flowing
   through it, which the sequential oracle (Taintcheck_seq over valid
   orderings) still reports — a Theorem 6.2 violation the fuzzer must
   surface.  Never set outside tests. *)
module Testing = struct
  let break_binop_meet = ref false
end

let tf_of_instr id (i : Tracing.Instr.t) =
  match i with
  | Taint_source x -> Some { tf_id = id; dst = x; rhs = Bot }
  | Untaint x | Assign_const x -> Some { tf_id = id; dst = x; rhs = Top }
  | Assign_unop (x, a) -> Some { tf_id = id; dst = x; rhs = Inherit [ a ] }
  | Assign_binop (x, a, b) ->
    let srcs =
      if !Testing.break_binop_meet || a = b then [ a ] else [ a; b ]
    in
    Some { tf_id = id; dst = x; rhs = Inherit srcs }
  | Read _ | Malloc _ | Free _ | Jump_via _ | Syscall_arg _ | Nop | Lock _
  | Unlock _ | Fork _ | Join _ ->
    None

(* Per-block pass-1 summary: transfer functions indexed by destination,
   latest first. *)
type block_tfs = { by_dst : tf list Tbl.t }

let summarize_block block =
  let by_dst = Tbl.create 16 in
  Butterfly.Block.iteri
    (fun id i ->
      match tf_of_instr id i with
      | None -> ()
      | Some tf ->
        let prev = Option.value (Tbl.find_opt by_dst tf.dst) ~default:[] in
        Tbl.replace by_dst tf.dst (tf :: prev))
    block;
  { by_dst }

(* One block's LASTCHECK table: each location the block resolved, with
   its last verdict (true = tainted).  Its GEN are the tainted entries,
   its KILL the untainted ones. *)
type lastcheck = bool Tbl.t

let tainted_in (h : lastcheck) x =
  match Tbl.find h x with v -> v | exception Not_found -> false

(* SC-termination state: per-thread upper bound on the position of the next
   transfer function the chase may follow from that thread. *)
module Pos_map = Map.Make (Int)

let pos_of (id : Id.t) = (id.epoch, id.index)

let sc_admissible sc_pos (tf : tf) =
  match Pos_map.find_opt tf.tf_id.tid sc_pos with
  | None -> true
  | Some (l, i) ->
    let l', i' = pos_of tf.tf_id in
    l' < l || (l' = l && i' < i)

let sc_advance sc_pos (tf : tf) = Pos_map.add tf.tf_id.tid (pos_of tf.tf_id) sc_pos

module Tf_set = Set.Make (struct
  type t = Id.t

  let compare = Id.compare
end)

let obs_labels = [ ("lifeguard", "taintcheck") ]
let m_checks = Obs.Counter.make ~labels:obs_labels "lifeguard.checks"
let m_flags = Obs.Counter.make ~labels:obs_labels "lifeguard.flags"
let g_set_hwm = Obs.Gauge.make ~labels:obs_labels "lifeguard.sos_size_hwm"

(* Checks phase 1 could not prove tainted, forcing the phase-2 chase of
   Lemma 6.3 — the contended path a coarser phase split would serialize. *)
let m_phase2 = Obs.Counter.make ~labels:obs_labels "lifeguard.phase2_rechecks"

(* Everything pass 2 learns about one body block, produced without touching
   shared state.  Evaluating block (l,t) reads only inputs sealed before
   its dispatch — the pass-1 transfer functions of epochs l-1..l+1,
   the LASTCHECK tables of epochs l-2 and l-1, and SOS_l — so it can run
   on a pool worker.  The master commits outcomes epoch-major /
   thread-minor, which reproduces the sequential error list, LASTCHECK
   tables, statistics and telemetry byte for byte. *)
type block_outcome = {
  bo_errors : error list;  (* in instruction order *)
  bo_lastcheck : lastcheck;
  bo_stats : block_stats;
  bo_lsos_card : int;
  bo_phase2 : int;
}

let flagged_sinks (r : report) =
  List.map (fun e -> e.sink) r.errors |> List.sort_uniq Int.compare

let pp_error ppf e =
  Format.fprintf ppf "tainted sink %a at %a" Tracing.Addr.pp e.sink Id.pp e.id

let fingerprint (r : report) =
  let fp_stats ppf grid =
    Array.iteri
      (fun t row ->
        Array.iteri
          (fun l (s : block_stats) ->
            Format.fprintf ppf "(%d,%d)%d/%d/%d " t l s.instrs s.mem_events
              s.checks_resolved)
          row)
      grid
  in
  Format.asprintf "errors=[%a] sos_tainted=[%a] stats=[%a]"
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " pp_error))
    r.errors
    (fun ppf ->
      Array.iter (fun xs ->
          List.iter (Format.fprintf ppf "%d,") xs;
          Format.fprintf ppf "; "))
    r.sos_tainted fp_stats r.block_stats

(* ------------------------------------------------------------------ *)
(* The evaluation core.  The master seals, before epoch l's pass 2, the
   frozen inputs every block of the epoch reads: summary rows l-1..l+1,
   LASTCHECK rows l-1 (the head) and l-2, and SOS_l.  Rows outside the
   execution read as empty.  The master keeps committing epoch l (and
   adding LASTCHECK row l) while pool workers evaluate it, so the ctx
   holds the rows themselves, never the tables they live in. *)

type ctx = {
  c_threads : int;
  c_sequential : bool;
  c_two_phase : bool;
  tfs : block_tfs array option array; (* summary rows l-1 .. l+1 *)
  head : lastcheck array; (* LASTCHECK row l-1 *)
  two_back : lastcheck array; (* LASTCHECK row l-2 *)
  sos_l : AS.t;
  sos_card : int; (* |SOS_l| under a live sink, else 0 *)
}

(* Is [x] tainted in some thread's LASTCHECK of [row] other than [tid]'s
   (a GEN entry of another block)? *)
let rec others_gen (row : lastcheck array) ~tid x t' =
  t' < Array.length row
  && ((t' <> tid && tainted_in row.(t') x) || others_gen row ~tid x (t' + 1))

(* Does every thread but [t] leave [x] untainted or unassigned over
   epochs (l-3, l-2)?  LASTCHECK(x, (l-3,l-2), t') is row l-2's verdict,
   else row l-3's. *)
let rec others_clear ~two_back ~three_back ~t x t' =
  t' >= Array.length two_back
  || (t' = t
     ||
     match Tbl.find two_back.(t') x with
     | v -> not v
     | exception Not_found -> not (tainted_in three_back.(t') x))
     && others_clear ~two_back ~three_back ~t x (t' + 1)

(* SOS over tainted addresses, with the reaching-definitions update
   SOS_l = GEN_{l-2} ∪ (SOS_{l-1} − KILL_{l-2}), for l >= 2, applied
   element by element to SOS_{l-1}: GEN_{l-2} is every tainted entry of
   LASTCHECK row l-2, KILL_{l-2} every untainted entry that no other
   thread's LASTCHECK over (l-3, l-2) leaves tainted.  The two are
   disjoint — a tainted [x] in one block fails [others_clear] for every
   other thread, and a table holds one verdict per location — so the
   order of the updates does not matter, and an update that changes
   nothing allocates nothing. *)
let sos_step ~prev ~two_back ~three_back =
  let sos = ref prev in
  Array.iteri
    (fun t h ->
      Tbl.iter
        (fun x tainted ->
          if tainted then sos := AS.add x !sos
          else if others_clear ~two_back ~three_back ~t x 0 then
            sos := AS.remove x !sos)
        h)
    two_back;
  !sos

(* LSOS via the May rule, with the resurrection clause:
     LSOS = head_gen ∪ (SOS_l − head_kill)
            ∪ (SOS_l ∩ head_kill ∩ ⋃_{t' ≠ tid} GEN(l-2, t'))
   Pass 2 only asks whether a location is in it, which one lookup in
   the head table answers without building the union. *)
let in_lsos c ~tid a =
  match Tbl.find c.head.(tid) a with
  | true -> true
  | false -> AS.mem a c.sos_l && others_gen c.two_back ~tid a 0
  | exception Not_found -> AS.mem a c.sos_l

(* |LSOS| by the same membership test, from the head table alone: the
   LSOS is SOS_l, plus the GEN entries outside it, minus the KILL
   entries in it that no other thread's GEN of l-2 resurrects. *)
let lsos_size ~head ~sos_l ~sos_card ~others_gen =
  Tbl.fold
    (fun a tainted n ->
      if tainted then if AS.mem a sos_l then n else n + 1
      else if AS.mem a sos_l && not (others_gen a) then n - 1
      else n)
    head sos_card

let eval_block c ~epoch:l ~tid block =
  let local : lastcheck = Tbl.create 16 in
  (* A chain's base taint sources: something our block already resolved
     as tainted (the wing read may interleave after our write), or the
     strongly-ordered past.  A local untaint does NOT mask the LSOS for
     wing chains: the wing may read the location before our untaint. *)
  let base_tainted a = tainted_in local a || in_lsos c ~tid a in
  (* Under sequential consistency a wing chain only uses other threads'
     transfer functions (the own thread's effects flow through LSOS and
     [local]); under relaxed models the own thread's independent writes
     may become visible out of program order (Figure 2), so its
     transfer functions join the chase and only the per-location
     termination rules bound it. *)
  let exclude = if c.c_sequential then tid else -1 in
  (* The transfer functions writing [a] in block (e, t'). *)
  let tfs_of e t' a =
    match c.tfs.(e - l + 1) with
    | None -> []
    | Some row -> (
      match Tbl.find row.(t').by_dst a with
      | tfs -> tfs
      | exception Not_found -> [])
  in
  (* Two-phase resolution (Lemma 6.3): phase 1 chases transfer
     functions of epochs l-1 and l; phase 2 of epochs l and l+1, where
     a parent already proven tainted by phase 1 stays tainted.  Both
     phases run here, on the worker: phase 2 reads the same frozen
     inputs as phase 1, and its verdicts feed [local] (hence later
     instructions of this very block), so deferring it past this
     block's commit would change results, not just scheduling. *)
  let checks = ref 0 in
  let phase2 = ref 0 in
  let phase1_memo : bool Tbl.t = Tbl.create 16 in
  (* Does some chain through the transfer functions of epochs lo..hi
     taint [a]?  The chase walks the per-block tables in place — epoch
     by epoch, then thread by thread, then down each list — and stops
     at the first chain that does. *)
  let rec resolve ~lo ~hi ~parent_extra a visited sc_pos =
    blocks ~lo ~hi ~parent_extra a visited sc_pos lo 0
  (* Blocks (e, t') onwards, thread-minor. *)
  and blocks ~lo ~hi ~parent_extra a visited sc_pos e t' =
    if t' = c.c_threads then
      e < hi && blocks ~lo ~hi ~parent_extra a visited sc_pos (e + 1) 0
    else
      (t' <> exclude
      && tf_list ~lo ~hi ~parent_extra visited sc_pos (tfs_of e t' a))
      || blocks ~lo ~hi ~parent_extra a visited sc_pos e (t' + 1)
  and tf_list ~lo ~hi ~parent_extra visited sc_pos = function
    | [] -> false
    | tf :: rest ->
      follow ~lo ~hi ~parent_extra visited sc_pos tf
      || tf_list ~lo ~hi ~parent_extra visited sc_pos rest
  and follow ~lo ~hi ~parent_extra visited sc_pos tf =
    incr checks;
    (not (Tf_set.mem tf.tf_id visited))
    && ((not c.c_sequential) || sc_admissible sc_pos tf)
    &&
    let visited = Tf_set.add tf.tf_id visited in
    let sc_pos = if c.c_sequential then sc_advance sc_pos tf else sc_pos in
    match tf.rhs with
    | Bot -> true
    | Top -> false
    | Inherit ps -> parents ~lo ~hi ~parent_extra visited sc_pos ps
  and parents ~lo ~hi ~parent_extra visited sc_pos = function
    | [] -> false
    | p :: rest ->
      base_tainted p || parent_extra p
      || resolve ~lo ~hi ~parent_extra p visited sc_pos
      || parents ~lo ~hi ~parent_extra visited sc_pos rest
  in
  let never _ = false in
  let phase1 a =
    match Tbl.find phase1_memo a with
    | r -> r
    | exception Not_found ->
      let r =
        resolve ~lo:(l - 1) ~hi:l ~parent_extra:never a Tf_set.empty
          Pos_map.empty
      in
      Tbl.replace phase1_memo a r;
      r
  in
  let wing_may a =
    if c.c_two_phase then
      phase1 a
      || (incr phase2;
          resolve ~lo:l ~hi:(l + 1) ~parent_extra:phase1 a Tf_set.empty
            Pos_map.empty)
    else
      (* Ablation: one phase over the whole window.  Still sound, but
         admits impossible chains such as an epoch l+1 taint feeding an
         epoch l-1 read (the example of Section 6.2). *)
      resolve ~lo:(l - 1) ~hi:(l + 1) ~parent_extra:never a Tf_set.empty
        Pos_map.empty
  in
  let may_tainted a =
    match Tbl.find local a with
    | true -> true
    | false -> wing_may a
    | exception Not_found -> in_lsos c ~tid a || wing_may a
  in
  let n_instrs = ref 0 and n_mem = ref 0 in
  let errs = ref [] in
  Butterfly.Block.iteri
    (fun id instr ->
      incr n_instrs;
      if Tracing.Instr.is_memory_event instr then incr n_mem;
      (match Tracing.Instr.taint_sink instr with
      | Some x -> if may_tainted x then errs := { id; sink = x } :: !errs
      | None -> ());
      match tf_of_instr id instr with
      | None -> ()
      | Some tf ->
        let result =
          match tf.rhs with
          | Bot -> true
          | Top -> false
          | Inherit ps -> List.exists may_tainted ps
        in
        Tbl.replace local tf.dst result)
    block;
  {
    bo_errors = List.rev !errs;
    bo_lastcheck = local;
    bo_stats =
      { instrs = !n_instrs; mem_events = !n_mem; checks_resolved = !checks };
    bo_lsos_card =
      (* Only the size gauge reads it, under a live sink. *)
      (if Obs.enabled () then
         lsos_size ~head:c.head.(tid) ~sos_l:c.sos_l ~sos_card:c.sos_card
           ~others_gen:(fun a -> others_gen c.two_back ~tid a 0)
       else 0);
    bo_phase2 = !phase2;
  }

(* ---------------------------------------------------------------- *)
(* The window kernel.  The step for epoch l reads LASTCHECK rows l-3
   and l-2 (the SOS update); pass 2 of l reads transfer functions of
   rows l-1..l+1 (the window's resident summaries), LASTCHECK rows l-2
   and l-1 and SOS_l — so LASTCHECK rows the window has passed are
   pruned, and the SOS history (part of the report) is kept whole.
   Nothing is derived from the LASTCHECK rows, so decode rebuilds
   nothing. *)

type params = { sequential : bool; two_phase : bool }

module Kernel = struct
  module W = Tracing.Binio.W
  module R = Tracing.Binio.R

  let name = "taintcheck"

  type env = unit
  type nonrec params = params
  type summary = block_tfs

  type state = {
    threads : int;
    params : params;
    lastcheck : (int, lastcheck array) Hashtbl.t; (* pruned *)
    sos : (int, AS.t) Hashtbl.t; (* full history: report content *)
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    mutable errors : error list; (* reversed *)
  }

  type sealed = ctx
  type outcome = block_outcome
  type nonrec report = report

  let rows_behind = 1
  let zero_stats = { instrs = 0; mem_events = 0; checks_resolved = 0 }

  let make ~threads params ~lastcheck ~sos ~stats ~errors =
    { threads; params; lastcheck; sos; stats; errors }

  let create ~threads () p =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    make ~threads p ~lastcheck:(Hashtbl.create 8) ~sos:(Hashtbl.create 64)
      ~stats:(Hashtbl.create 64) ~errors:[]

  let summarize _ block = summarize_block block

  let sos_at st l = Option.value (Hashtbl.find_opt st.sos l) ~default:AS.empty

  let lastcheck_row st l =
    match Hashtbl.find_opt st.lastcheck l with
    | Some row -> row
    | None ->
      (* Outside the execution: no entries.  One fresh table per block:
         [Tbl.fold] writes the table it walks, and pass 2 folds each
         block's head table (the size gauge) on its own domain. *)
      Array.init st.threads (fun _ -> Tbl.create 1)

  let advance_sos st l =
    if l >= 2 then
      Hashtbl.replace st.sos l
        (sos_step ~prev:(sos_at st (l - 1))
           ~two_back:(lastcheck_row st (l - 2))
           ~three_back:(lastcheck_row st (l - 3)))

  (* Seal SOS_l, and hand pass 2 the rows it reads. *)
  let step st ~inline:_ ~row l =
    advance_sos st l;
    let sos_l = sos_at st l in
    {
      c_threads = st.threads;
      c_sequential = st.params.sequential;
      c_two_phase = st.params.two_phase;
      tfs = Array.init 3 (fun i -> row (l - 1 + i));
      head = lastcheck_row st (l - 1);
      two_back = lastcheck_row st (l - 2);
      sos_l;
      sos_card = (if Obs.enabled () then AS.cardinal sos_l else 0);
    }

  let eval_block = eval_block

  let commit st ~epoch:l ~tid o =
    st.errors <- List.rev_append o.bo_errors st.errors;
    let row =
      match Hashtbl.find_opt st.lastcheck l with
      | Some row -> row
      | None ->
        let row = Array.init st.threads (fun _ -> Tbl.create 1) in
        Hashtbl.replace st.lastcheck l row;
        row
    in
    (* The block's own table becomes its LASTCHECK entry: the outcome is
       committed once and nothing else holds it. *)
    row.(tid) <- o.bo_lastcheck;
    let srow =
      match Hashtbl.find_opt st.stats l with
      | Some s -> s
      | None ->
        let s = Array.make st.threads zero_stats in
        Hashtbl.replace st.stats l s;
        s
    in
    srow.(tid) <- o.bo_stats;
    Obs.Counter.add m_checks o.bo_stats.checks_resolved;
    Obs.Counter.add m_flags (List.length o.bo_errors);
    Obs.Counter.add m_phase2 o.bo_phase2;
    if Obs.enabled () then
      Obs.Gauge.set_max g_set_hwm (float_of_int o.bo_lsos_card);
    (* LASTCHECK row l is whole: retire the row the window has passed. *)
    if tid = st.threads - 1 then Hashtbl.remove st.lastcheck (l - 3)

  let report st ~row:_ ~epochs:num_l =
    (* Final SOS entries past the last window. *)
    advance_sos st num_l;
    advance_sos st (num_l + 1);
    {
      errors = List.rev st.errors;
      sos_tainted =
        Array.init (num_l + 2) (fun l -> AS.elements (sos_at st l));
      block_stats =
        Array.init st.threads (fun tid ->
            Array.init num_l (fun l ->
                match Hashtbl.find_opt st.stats l with
                | Some row -> row.(tid)
                | None -> zero_stats));
    }

  let put_params w p =
    W.bool w p.sequential;
    W.bool w p.two_phase

  let get_params r =
    let sequential = R.bool r in
    let two_phase = R.bool r in
    { sequential; two_phase }

  let put_stats w (s : block_stats) =
    W.varint w s.instrs;
    W.varint w s.mem_events;
    W.varint w s.checks_resolved

  let get_stats r =
    let instrs = R.varint r in
    let mem_events = R.varint r in
    let checks_resolved = R.varint r in
    { instrs; mem_events; checks_resolved }

  (* Fact sets are serialized as sorted element lists. *)
  let put_body w st =
    W.list w
      (fun w (e : error) ->
        Butterfly.Instr_id.put w e.id;
        W.sint w e.sink)
      st.errors;
    Lg_io.put_rows w put_stats st.stats;
    W.list w
      (fun w (l, s) ->
        W.varint w l;
        W.list w (fun w x -> W.sint w x) (AS.elements s))
      (Lg_io.sorted_entries st.sos);
    Lg_io.put_rows w
      (fun w tbl ->
        W.list w
          (fun w (x, b) ->
            W.sint w x;
            W.bool w b)
          (List.sort compare (Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [])))
      st.lastcheck

  let get_body r ~threads ~processed:_ () p =
    let errors =
      R.list r (fun r ->
          let id = Butterfly.Instr_id.get r in
          let sink = R.sint r in
          { id; sink })
    in
    let stats = Lg_io.get_rows r ~threads ~what:"stats" get_stats in
    let sos = Hashtbl.create 64 in
    ignore
      (R.list r (fun r ->
           let l = R.varint r in
           let xs = R.list r (fun r -> R.sint r) in
           Hashtbl.replace sos l (AS.of_list xs)));
    let lastcheck =
      Lg_io.get_rows r ~threads ~what:"lastcheck" (fun r ->
          let tbl = Tbl.create 16 in
          ignore
            (R.list r (fun r ->
                 let x = R.sint r in
                 let b = R.bool r in
                 Tbl.replace tbl x b));
          tbl)
    in
    make ~threads p ~lastcheck ~sos ~stats ~errors
end

module Engine = Butterfly.Window.Make (Kernel)

let run ?(sequential = true) ?(two_phase = true) ?pool epochs =
  Engine.run ?pool () { sequential; two_phase } epochs

let lastcheck_of_list entries : lastcheck =
  let h = Tbl.create 16 in
  List.iter (fun (x, v) -> Tbl.replace h x v) entries;
  h

let lsos_cardinal ~head_gen ~head_kill ~sos ~others_gen =
  (* One verdict per location: a location in both lists is in the
     LSOS through [head_gen], so GEN wins. *)
  let head =
    lastcheck_of_list
      (List.map (fun x -> (x, false)) head_kill
      @ List.map (fun x -> (x, true)) head_gen)
  and sos_l = AS.of_list sos
  and others = AS.of_list (List.concat others_gen) in
  lsos_size ~head ~sos_l ~sos_card:(AS.cardinal sos_l)
    ~others_gen:(fun a -> AS.mem a others)
