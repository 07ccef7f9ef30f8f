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

(* Taintcheck does not ride on [Dataflow.Make], so it emits the pipeline
   counters itself to keep [--stats] reports uniform across lifeguards. *)
let pipe_labels = [ ("problem", "taintcheck"); ("driver", "batch") ]
let m_epochs = Obs.Counter.make ~labels:pipe_labels "butterfly.epochs_processed"
let m_instrs = Obs.Counter.make ~labels:pipe_labels "butterfly.pass2_instrs"

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
   looked up: the [Resumable] engine below instantiates [ctx] over its
   pruned sliding window.  Accessors return [None] (or [AS.empty])
   outside the window, which is also how the grid reads outside the
   execution. *)

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

let eval_block c ~epoch:l ~tid block =
  (* LSOS via the May rule, with the resurrection clause:
       LSOS = head_gen ∪ (SOS_l − head_kill)
              ∪ (SOS_l ∩ head_kill ∩ ⋃_{t' ≠ tid} GEN(l-2, t'))
     Pass 2 only asks whether a location is in it, which the sealed
     GEN/KILL sets answer without building the union. *)
  let head_gen = gen_block c (l - 1) tid
  and head_kill = kill_block c (l - 1) tid in
  let others_gen_l2 =
    List.filteri
      (fun t' _ -> t' <> tid)
      (List.init c.c_threads (gen_block c (l - 2)))
  in
  let sos_l = c.sos_at l in
  let in_lsos a =
    AS.mem a head_gen
    || AS.mem a sos_l
       && ((not (AS.mem a head_kill)) || List.exists (AS.mem a) others_gen_l2)
  in
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
      (* The LSOS is built only for the size gauge, under a live sink. *)
      (if Obs.enabled () then
         AS.cardinal
           (AS.union head_gen
              (AS.union
                 (AS.diff sos_l head_kill)
                 (AS.inter
                    (AS.inter sos_l head_kill)
                    (List.fold_left AS.union AS.empty others_gen_l2))))
       else 0);
    bo_phase2 = !phase2;
  }

(* ---------------------------------------------------------------- *)
(* The epoch-incremental engine, checkpointable between epochs.
   Evaluating epoch l reads transfer functions of rows l-1..l+1,
   LASTCHECK (and GEN/KILL) rows l-3..l-1 and SOS_l — so raw rows, pass-1
   summaries and LASTCHECK rows the window has passed are pruned, and
   the SOS history (part of the report) is kept whole.  Pass-1 summaries
   are recomputed from the retained raw rows on decode rather than
   serialized: [summarize_block] is pure; likewise GEN/KILL rows are
   resealed from the retained LASTCHECK rows. *)

module Resumable = struct
  let zero_stats = { instrs = 0; mem_events = 0; checks_resolved = 0 }

  type state = {
    threads : int;
    sequential : bool;
    two_phase : bool;
    pool : Butterfly.Domain_pool.t option;
    rows : (int, Tracing.Instr.t array array) Hashtbl.t; (* raw, pruned *)
    tfs : (int, block_tfs array) Hashtbl.t; (* derived from [rows] *)
    lastcheck : (int, (int, bool) Hashtbl.t array) Hashtbl.t; (* pruned *)
    gen_kill : (int, gen_kill array) Hashtbl.t; (* derived from [lastcheck] *)
    sos : (int, AS.t) Hashtbl.t; (* full history: report content *)
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    ctx : ctx; (* window lookups for the evaluation core *)
    mutable errors : error list; (* reversed *)
    mutable processed : int;
    mutable epochs_fed : int;
  }

  let make_ctx_of ~threads ~sequential ~two_phase ~tfs ~lastcheck ~gen_kill
      ~sos =
    {
      c_threads = threads;
      c_sequential = sequential;
      c_two_phase = two_phase;
      tfs_at =
        (fun l t ->
          match Hashtbl.find_opt tfs l with
          | Some row -> Some row.(t)
          | None -> None);
      lastcheck_at =
        (fun l t ->
          match Hashtbl.find_opt lastcheck l with
          | Some row -> Some row.(t)
          | None -> None);
      gen_kill_at =
        (fun l t ->
          match Hashtbl.find_opt gen_kill l with
          | Some row -> row.(t)
          | None -> no_gen_kill);
      sos_at =
        (fun l -> Option.value (Hashtbl.find_opt sos l) ~default:AS.empty);
    }

  let create ?pool ?(sequential = true) ?(two_phase = true) ~threads () =
    if threads <= 0 then
      invalid_arg "Taintcheck.Resumable.create: threads must be > 0";
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    let rows = Hashtbl.create 8 in
    let tfs = Hashtbl.create 8 in
    let lastcheck = Hashtbl.create 8 in
    let gen_kill = Hashtbl.create 8 in
    let sos = Hashtbl.create 64 in
    {
      threads;
      sequential;
      two_phase;
      pool;
      rows;
      tfs;
      lastcheck;
      gen_kill;
      sos;
      stats = Hashtbl.create 64;
      ctx =
        make_ctx_of ~threads ~sequential ~two_phase ~tfs ~lastcheck ~gen_kill
          ~sos;
      errors = [];
      processed = 0;
      epochs_fed = 0;
    }

  let threads st = st.threads
  let epochs_fed st = st.epochs_fed

  let advance_sos st l =
    if l >= 2 then begin
      let prev =
        Option.value (Hashtbl.find_opt st.sos (l - 1)) ~default:AS.empty
      in
      Hashtbl.replace st.sos l (sos_step st.ctx ~prev l)
    end

  let commit st ~epoch:l ~tid o =
    st.errors <- List.rev_append o.bo_errors st.errors;
    let row =
      match Hashtbl.find_opt st.lastcheck l with
      | Some row -> row
      | None ->
        let row = Array.init st.threads (fun _ -> Hashtbl.create 16) in
        Hashtbl.replace st.lastcheck l row;
        row
    in
    Hashtbl.iter (fun x r -> Hashtbl.replace row.(tid) x r) o.bo_lastcheck;
    let srow =
      match Hashtbl.find_opt st.stats l with
      | Some s -> s
      | None ->
        let s = Array.make st.threads zero_stats in
        Hashtbl.replace st.stats l s;
        s
    in
    srow.(tid) <- o.bo_stats;
    Obs.Scope.with_scope ~epoch:l ~tid ~phase:"commit" (fun () ->
        Obs.Counter.add m_checks o.bo_stats.checks_resolved;
        Obs.Counter.add m_flags (List.length o.bo_errors);
        Obs.Counter.add m_phase2 o.bo_phase2;
        Obs.Counter.add m_instrs o.bo_stats.instrs;
        if Obs.enabled () then
          Obs.Gauge.set_max g_set_hwm (float_of_int o.bo_lsos_card);
        if tid = st.threads - 1 then Obs.Counter.incr m_epochs)

  (* GEN/KILL of every block of LASTCHECK row [l], once it is whole. *)
  let seal_gen_kill_row gen_kill l row =
    Hashtbl.replace gen_kill l (Array.map seal_gen_kill row)

  (* Process epoch [st.processed]: seal SOS_l, run pass 2 of every block
     (fanned out on the pool when there is one, committed in tid order),
     seal the GEN/KILL row of the committed LASTCHECK row l, then retire
     the rows the window has passed (raw/summary rows < l, LASTCHECK and
     GEN/KILL rows < l-2). *)
  let process_one st =
    let l = st.processed in
    advance_sos st l;
    let c = st.ctx in
    let row = Hashtbl.find st.rows l in
    Butterfly.Scheduler.pass2_epoch ?pool:st.pool ~threads:st.threads
      ~pass2:(fun ~epoch ~tid ->
        eval_block c ~epoch ~tid (Butterfly.Block.make ~epoch ~tid row.(tid)))
      ~commit2:(commit st) l;
    Option.iter
      (seal_gen_kill_row st.gen_kill l)
      (Hashtbl.find_opt st.lastcheck l);
    st.processed <- l + 1;
    if l > 0 then (
      Hashtbl.remove st.rows (l - 1);
      Hashtbl.remove st.tfs (l - 1));
    if l >= 3 then (
      Hashtbl.remove st.lastcheck (l - 3);
      Hashtbl.remove st.gen_kill (l - 3))

  (* Rows arrive whole, so epoch l is processable as soon as row l+1 (its
     trailing-wing source) has been fed; the last epoch waits for
     [finish], where the missing row l+1 reads as empty, as the grid
     does outside the execution. *)
  let feed_epoch st row =
    if Array.length row <> st.threads then
      invalid_arg "Taintcheck.Resumable.feed_epoch: wrong row width";
    let epoch = st.epochs_fed in
    Hashtbl.replace st.rows epoch row;
    Hashtbl.replace st.tfs epoch
      (Array.mapi
         (fun tid instrs ->
           Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
               summarize_block (Butterfly.Block.make ~epoch ~tid instrs)))
         row);
    st.epochs_fed <- epoch + 1;
    while st.processed <= st.epochs_fed - 2 do
      process_one st
    done

  let finish st =
    (* An empty program still owns one (empty) epoch — mirror
       [Epochs.of_program]. *)
    if st.epochs_fed = 0 then feed_epoch st (Array.make st.threads [||]);
    while st.processed < st.epochs_fed do
      process_one st
    done;
    let num_l = st.epochs_fed in
    (* Final SOS entries past the last window. *)
    advance_sos st num_l;
    advance_sos st (num_l + 1);
    {
      errors = List.rev st.errors;
      sos_tainted =
        Array.init (num_l + 2) (fun l ->
            AS.elements
              (Option.value (Hashtbl.find_opt st.sos l) ~default:AS.empty));
      block_stats =
        Array.init st.threads (fun tid ->
            Array.init num_l (fun l ->
                match Hashtbl.find_opt st.stats l with
                | Some row -> row.(tid)
                | None -> zero_stats));
    }

  let put_stats w (s : block_stats) =
    let module W = Tracing.Binio.W in
    W.varint w s.instrs;
    W.varint w s.mem_events;
    W.varint w s.checks_resolved

  let get_stats r =
    let module R = Tracing.Binio.R in
    let instrs = R.varint r in
    let mem_events = R.varint r in
    let checks_resolved = R.varint r in
    { instrs; mem_events; checks_resolved }

  (* Fact sets are serialized as sorted element lists. *)
  let encode st =
    let module W = Tracing.Binio.W in
    let w = W.create () in
    W.varint w st.threads;
    W.bool w st.sequential;
    W.bool w st.two_phase;
    W.varint w st.epochs_fed;
    W.varint w st.processed;
    W.list w
      (fun w (e : error) ->
        Lg_io.put_id w e.id;
        W.sint w e.sink)
      st.errors;
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w put_stats row)
      (Lg_io.sorted_entries st.stats);
    W.list w
      (fun w (l, s) ->
        W.varint w l;
        W.list w (fun w x -> W.sint w x) (AS.elements s))
      (Lg_io.sorted_entries st.sos);
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w
          (fun w tbl ->
            W.list w
              (fun w (x, b) ->
                W.sint w x;
                W.bool w b)
              (List.sort compare
                 (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])))
          row)
      (Lg_io.sorted_entries st.lastcheck);
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w Lg_io.put_instrs row)
      (Lg_io.sorted_entries st.rows);
    W.contents w

  let decode ?pool s =
    let module R = Tracing.Binio.R in
    match
      let r = R.of_string s in
      let threads = R.varint r in
      if threads = 0 then raise (R.Corrupt "zero threads");
      let sequential = R.bool r in
      let two_phase = R.bool r in
      let epochs_fed = R.varint r in
      let processed = R.varint r in
      let errors =
        R.list r (fun r ->
            let id = Lg_io.get_id r in
            let sink = R.sint r in
            { id; sink })
      in
      let stats = Hashtbl.create 64 in
      ignore
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row = R.array r get_stats in
             if Array.length row <> threads then
               raise (R.Corrupt "stats row width mismatch");
             Hashtbl.replace stats epoch row));
      let sos = Hashtbl.create 64 in
      ignore
        (R.list r (fun r ->
             let l = R.varint r in
             let xs = R.list r (fun r -> R.sint r) in
             Hashtbl.replace sos l (AS.of_list xs)));
      let lastcheck = Hashtbl.create 8 in
      ignore
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row =
               R.array r (fun r ->
                   let tbl = Hashtbl.create 16 in
                   ignore
                     (R.list r (fun r ->
                          let x = R.sint r in
                          let b = R.bool r in
                          Hashtbl.replace tbl x b));
                   tbl)
             in
             if Array.length row <> threads then
               raise (R.Corrupt "lastcheck row width mismatch");
             Hashtbl.replace lastcheck epoch row));
      let rows = Hashtbl.create 8 in
      ignore
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row = R.array r Lg_io.get_instrs in
             if Array.length row <> threads then
               raise (R.Corrupt "instr row width mismatch");
             Hashtbl.replace rows epoch row));
      R.expect_end r;
      let gen_kill = Hashtbl.create 8 in
      Hashtbl.iter (seal_gen_kill_row gen_kill) lastcheck;
      let tfs = Hashtbl.create 8 in
      Hashtbl.iter
        (fun epoch row ->
          Hashtbl.replace tfs epoch
            (Array.mapi
               (fun tid instrs ->
                 summarize_block (Butterfly.Block.make ~epoch ~tid instrs))
               row))
        rows;
      {
        threads;
        sequential;
        two_phase;
        pool;
        rows;
        tfs;
        lastcheck;
        gen_kill;
        sos;
        stats;
        ctx =
          make_ctx_of ~threads ~sequential ~two_phase ~tfs ~lastcheck ~gen_kill
            ~sos;
        errors;
        processed;
        epochs_fed;
      }
    with
    | st -> Ok st
    | exception R.Corrupt m -> Error ("taintcheck state: " ^ m)
end

let run ?sequential ?two_phase ?pool epochs =
  let st =
    Resumable.create ?pool ?sequential ?two_phase
      ~threads:(Butterfly.Epochs.threads epochs) ()
  in
  Butterfly.Epochs.iter_rows epochs (Resumable.feed_epoch st);
  Resumable.finish st
