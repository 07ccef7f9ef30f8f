module AS = Set.Make (Int)
module Id = Butterfly.Instr_id

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

(* Per-block pass-1 summary: transfer functions indexed by destination. *)
type block_tfs = { by_dst : (int, tf list) Hashtbl.t }

let summarize_block block =
  let by_dst = Hashtbl.create 16 in
  Butterfly.Block.iteri
    (fun id i ->
      match tf_of_instr id i with
      | None -> ()
      | Some tf ->
        let prev = Option.value (Hashtbl.find_opt by_dst tf.dst) ~default:[] in
        Hashtbl.replace by_dst tf.dst (tf :: prev))
    block;
  { by_dst }

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
   LASTCHECK results of epochs <= l-1 with their sealed GEN/KILL sets,
   and SOS_l — so it can run on a pool worker.  The master commits outcomes epoch-major / thread-minor,
   which reproduces the sequential error list, LASTCHECK tables, statistics
   and telemetry byte for byte. *)
type block_outcome = {
  bo_errors : error list;  (* in instruction order *)
  bo_lastcheck : (int, bool) Hashtbl.t;
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
(* The evaluation core, parameterized over how its frozen inputs are
   looked up: the kernel below instantiates [ctx] over the window's
   resident rows and its own pruned LASTCHECK rows.  Accessors return
   [None] (or [AS.empty]) outside the window, which is also how the grid
   reads outside the execution. *)

(* A LASTCHECK block's GEN (locations it last resolved tainted) and
   KILL (last resolved untainted), sealed once by the master after the
   block's epoch has committed. *)
type gen_kill = { gen : AS.t; kill : AS.t }

let no_gen_kill = { gen = AS.empty; kill = AS.empty }

let seal_gen_kill (h : (int, bool) Hashtbl.t) =
  let gen, kill =
    Hashtbl.fold
      (fun x tainted (g, k) -> if tainted then (x :: g, k) else (g, x :: k))
      h ([], [])
  in
  { gen = AS.of_list gen; kill = AS.of_list kill }

type ctx = {
  c_threads : int;
  c_sequential : bool;
  c_two_phase : bool;
  tfs_at : int -> int -> block_tfs option;
  lastcheck_at : int -> int -> (int, bool) Hashtbl.t option;
  gen_kill_at : int -> int -> gen_kill;
  sos_at : int -> AS.t;
}

let gen_block c l t = (c.gen_kill_at l t).gen
let kill_block c l t = (c.gen_kill_at l t).kill

(* LASTCHECK(x, (l-1,l), t): the last check spanning the two epochs. *)
let lastcheck_span c x l t =
  let look l =
    match c.lastcheck_at l t with
    | None -> None
    | Some h -> Hashtbl.find_opt h x
  in
  match look l with Some r -> Some r | None -> look (l - 1)

let epoch_gen c l =
  let acc = ref AS.empty in
  for t = 0 to c.c_threads - 1 do
    acc := AS.union !acc (gen_block c l t)
  done;
  !acc

let epoch_kill c l =
  let acc = ref [] in
  for t = 0 to c.c_threads - 1 do
    AS.iter
      (fun x ->
        let others_ok =
          List.for_all
            (fun t' ->
              t' = t
              ||
              match lastcheck_span c x l t' with
              | None -> true (* ∅: never assigned nearby *)
              | Some tainted -> not tainted)
            (List.init c.c_threads Fun.id)
        in
        if others_ok then acc := x :: !acc)
      (kill_block c l t)
  done;
  AS.of_list !acc

(* SOS over tainted addresses, with the reaching-definitions update:
   SOS_l = GEN_{l-2} ∪ (SOS_{l-1} − KILL_{l-2}), for l >= 2. *)
let sos_step c ~prev l =
  AS.union (epoch_gen c (l - 2)) (AS.diff prev (epoch_kill c (l - 2)))

let tfs_for c ~scope ~exclude_tid a =
  List.concat_map
    (fun l ->
      List.concat
        (List.init c.c_threads (fun t' ->
             if Some t' = exclude_tid then []
             else
               match c.tfs_at l t' with
               | None -> []
               | Some tfs ->
                 Option.value (Hashtbl.find_opt tfs.by_dst a) ~default:[])))
    scope

(* LSOS via the May rule, with the resurrection clause:
     LSOS = head_gen ∪ (SOS_l − head_kill)
            ∪ (SOS_l ∩ head_kill ∩ ⋃_{t' ≠ tid} GEN(l-2, t'))
   Pass 2 only asks whether a location is in it, which the sealed
   GEN/KILL sets answer without building the union.  (A closure of one
   argument, so pass 2 calls it as cheaply as a local function.) *)
let in_lsos ~head_gen ~head_kill ~sos_l ~others_gen_l2 =
  let mem a =
    AS.mem a head_gen
    || AS.mem a sos_l
       && ((not (AS.mem a head_kill)) || List.exists (AS.mem a) others_gen_l2)
  in
  mem

(* |LSOS| by the same membership test, probing only the (small) head
   sets: the LSOS is head_gen plus the members of SOS_l − head_gen that
   pass [in_lsos], and the only members of SOS_l that fail it lie in
   head_kill. *)
let lsos_size ~head_gen ~head_kill ~in_lsos ~sos_l =
  let count p s = AS.fold (fun a n -> if p a then n + 1 else n) s 0 in
  AS.cardinal head_gen + AS.cardinal sos_l
  - count (fun a -> AS.mem a sos_l) head_gen
  - count (fun a -> AS.mem a sos_l && not (in_lsos a)) head_kill

let eval_block c ~epoch:l ~tid block =
  let head_gen = gen_block c (l - 1) tid
  and head_kill = kill_block c (l - 1) tid in
  let others_gen_l2 =
    List.filteri
      (fun t' _ -> t' <> tid)
      (List.init c.c_threads (gen_block c (l - 2)))
  in
  let sos_l = c.sos_at l in
  let in_lsos = in_lsos ~head_gen ~head_kill ~sos_l ~others_gen_l2 in
  let local : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  (* A chain's base taint sources: something our block already resolved
     as tainted (the wing read may interleave after our write), or the
     strongly-ordered past.  A local untaint does NOT mask the LSOS for
     wing chains: the wing may read the location before our untaint. *)
  let base_tainted a =
    Hashtbl.find_opt local a = Some true || in_lsos a
  in
  (* Under sequential consistency a wing chain only uses other threads'
     transfer functions (the own thread's effects flow through LSOS and
     [local]); under relaxed models the own thread's independent writes
     may become visible out of program order (Figure 2), so its
     transfer functions join the chase and only the per-location
     termination rules bound it. *)
  let exclude_tid = if c.c_sequential then Some tid else None in
  (* Two-phase resolution (Lemma 6.3): phase 1 chases transfer
     functions of epochs l-1 and l; phase 2 of epochs l and l+1, where
     a parent already proven tainted by phase 1 stays tainted.  Both
     phases run here, on the worker: phase 2 reads the same frozen
     inputs as phase 1, and its verdicts feed [local] (hence later
     instructions of this very block), so deferring it past this
     block's commit would change results, not just scheduling. *)
  let checks = ref 0 in
  let phase2 = ref 0 in
  let phase1_memo : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve ~scope ~parent_extra a visited sc_pos =
    List.exists
      (fun tf ->
        incr checks;
        (not (Tf_set.mem tf.tf_id visited))
        && ((not c.c_sequential) || sc_admissible sc_pos tf)
        &&
        let visited = Tf_set.add tf.tf_id visited in
        let sc_pos =
          if c.c_sequential then sc_advance sc_pos tf else sc_pos
        in
        match tf.rhs with
        | Bot -> true
        | Top -> false
        | Inherit ps ->
          List.exists
            (fun p ->
              base_tainted p || parent_extra p
              || resolve ~scope ~parent_extra p visited sc_pos)
            ps)
      (tfs_for c ~scope ~exclude_tid a)
  in
  let phase1 a =
    match Hashtbl.find_opt phase1_memo a with
    | Some r -> r
    | None ->
      let r =
        resolve ~scope:[ l - 1; l ]
          ~parent_extra:(fun _ -> false)
          a Tf_set.empty Pos_map.empty
      in
      Hashtbl.replace phase1_memo a r;
      r
  in
  let wing_may a =
    if c.c_two_phase then
      phase1 a
      || (incr phase2;
          resolve ~scope:[ l; l + 1 ] ~parent_extra:phase1 a Tf_set.empty
            Pos_map.empty)
    else
      (* Ablation: one phase over the whole window.  Still sound, but
         admits impossible chains such as an epoch l+1 taint feeding an
         epoch l-1 read (the example of Section 6.2). *)
      resolve ~scope:[ l - 1; l; l + 1 ]
        ~parent_extra:(fun _ -> false)
        a Tf_set.empty Pos_map.empty
  in
  let may_tainted a =
    match Hashtbl.find_opt local a with
    | Some true -> true
    | Some false -> wing_may a
    | None -> in_lsos a || wing_may a
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
        Hashtbl.replace local tf.dst result)
    block;
  {
    bo_errors = List.rev !errs;
    bo_lastcheck = local;
    bo_stats =
      { instrs = !n_instrs; mem_events = !n_mem; checks_resolved = !checks };
    bo_lsos_card =
      (* Only the size gauge reads it, under a live sink. *)
      (if Obs.enabled () then lsos_size ~head_gen ~head_kill ~in_lsos ~sos_l
       else 0);
    bo_phase2 = !phase2;
  }

(* ---------------------------------------------------------------- *)
(* The window kernel.  Evaluating epoch l reads transfer functions of
   rows l-1..l+1 (the window's resident summaries), LASTCHECK (and
   GEN/KILL) rows l-3..l-1 and SOS_l — so LASTCHECK rows the window has
   passed are pruned, and the SOS history (part of the report) is kept
   whole.  GEN/KILL rows are resealed from the retained LASTCHECK rows
   on decode. *)

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
    lastcheck : (int, (int, bool) Hashtbl.t array) Hashtbl.t; (* pruned *)
    gen_kill : (int, gen_kill array) Hashtbl.t; (* derived from [lastcheck] *)
    sos : (int, AS.t) Hashtbl.t; (* full history: report content *)
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    ctx : ctx; (* the step fills in the transfer functions *)
    mutable errors : error list; (* reversed *)
  }

  type sealed = ctx
  type outcome = block_outcome
  type nonrec report = report

  let rows_behind = 1
  let zero_stats = { instrs = 0; mem_events = 0; checks_resolved = 0 }

  let make ~threads p ~lastcheck ~sos ~stats ~errors =
    let gen_kill = Hashtbl.create 8 in
    Hashtbl.iter
      (fun l row -> Hashtbl.replace gen_kill l (Array.map seal_gen_kill row))
      lastcheck;
    let row_at tbl l t = Option.map (fun row -> row.(t)) (Hashtbl.find_opt tbl l) in
    {
      threads;
      lastcheck;
      gen_kill;
      sos;
      stats;
      ctx =
        {
          c_threads = threads;
          c_sequential = p.sequential;
          c_two_phase = p.two_phase;
          tfs_at = (fun _ _ -> None);
          lastcheck_at = row_at lastcheck;
          gen_kill_at =
            (fun l t -> Option.value (row_at gen_kill l t) ~default:no_gen_kill);
          sos_at =
            (fun l -> Option.value (Hashtbl.find_opt sos l) ~default:AS.empty);
        };
      errors;
    }

  let create ~threads () p =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    make ~threads p ~lastcheck:(Hashtbl.create 8) ~sos:(Hashtbl.create 64)
      ~stats:(Hashtbl.create 64) ~errors:[]

  let summarize _ block = summarize_block block

  let advance_sos st l =
    if l >= 2 then begin
      let prev =
        Option.value (Hashtbl.find_opt st.sos (l - 1)) ~default:AS.empty
      in
      Hashtbl.replace st.sos l (sos_step st.ctx ~prev l)
    end

  (* Seal SOS_l, and hand pass 2 the transfer functions of rows
     l-1..l+1. *)
  let step st ~inline:_ ~row l =
    advance_sos st l;
    let tfs = Array.init 3 (fun i -> row (l - 1 + i)) in
    {
      st.ctx with
      tfs_at = (fun l' t -> Option.map (fun r -> r.(t)) tfs.(l' - l + 1));
    }

  let eval_block = eval_block

  let commit st ~epoch:l ~tid o =
    st.errors <- List.rev_append o.bo_errors st.errors;
    let row =
      match Hashtbl.find_opt st.lastcheck l with
      | Some row -> row
      | None ->
        let row = Array.init st.threads (fun _ -> Hashtbl.create 1) in
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
    if tid = st.threads - 1 then begin
      (* LASTCHECK row l is whole: seal its GEN/KILL, and retire the
         rows the window has passed. *)
      Hashtbl.replace st.gen_kill l (Array.map seal_gen_kill row);
      Hashtbl.remove st.lastcheck (l - 3);
      Hashtbl.remove st.gen_kill (l - 3)
    end

  let report st ~row:_ ~epochs:num_l =
    (* Final SOS entries past the last window. *)
    advance_sos st num_l;
    advance_sos st (num_l + 1);
    {
      errors = List.rev st.errors;
      sos_tainted =
        Array.init (num_l + 2) (fun l -> AS.elements (st.ctx.sos_at l));
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
          (List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])))
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
          let tbl = Hashtbl.create 16 in
          ignore
            (R.list r (fun r ->
                 let x = R.sint r in
                 let b = R.bool r in
                 Hashtbl.replace tbl x b));
          tbl)
    in
    make ~threads p ~lastcheck ~sos ~stats ~errors
end

module Engine = Butterfly.Window.Make (Kernel)

let run ?(sequential = true) ?(two_phase = true) ?pool epochs =
  Engine.run ?pool () { sequential; two_phase } epochs

let lsos_cardinal ~head_gen ~head_kill ~sos ~others_gen =
  let head_gen = AS.of_list head_gen
  and head_kill = AS.of_list head_kill
  and sos_l = AS.of_list sos in
  lsos_size ~head_gen ~head_kill ~sos_l
    ~in_lsos:
      (in_lsos ~head_gen ~head_kill ~sos_l
         ~others_gen_l2:(List.map AS.of_list others_gen))
