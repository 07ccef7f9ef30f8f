(* RaceCheck: a happens-before / lockset data-race lifeguard on the
   butterfly window.

   The trace ISA's synchronization events induce a happens-before partial
   order over dynamic instructions:

     - program order within each thread;
     - the epoch assumption: every event of epoch l precedes every event
       of epoch l' >= l+2 (Lemma 5.2 — exactly the strictly-ordered
       region of the butterfly);
     - fork: [Fork u] at (l_f, t) precedes every event of thread u at
       epochs > l_f;
     - join: every event of thread u at epochs < l_j precedes [Join u]
       at (l_j, t).

   Every edge is non-decreasing in epoch, so for a conflicting cross-
   thread pair inside the window (|Δl| <= 1) an exhaustive path analysis
   leaves exactly two ways the earlier access B at (l-1, u, i_b) can be
   ordered before the later access A at (l, t, i):

     (a) block (l-1, u) forks t at an index >= i_b (B runs po-before the
         fork, the fork precedes all of t's epoch-l events), or
     (b) block (l, t) joins u at an index < i (the join succeeds all of
         u's epoch-(l-1) events and po-precedes A).

   Same-epoch cross-thread pairs are never ordered, and no transitive
   path through a third thread exists inside the window.  Case (a) is
   encoded in a per-block entry {!Vclock}: component u of block (l, t)'s
   entry clock is (l-1, f+1) when block (l-1, u) last forks t at index
   f, else (l-1, 0) — positions strictly below the component happen
   before the whole block.  Case (b) refines the clock per access.

   A pair left unordered by happens-before is still suppressed when the
   two accesses hold a common lock: mutual exclusion orders the critical
   sections in every valid ordering.  Locksets are pure per-thread
   program-order state; each thread's held-lock set at epoch entry is
   maintained SOS-style by the master, one row per epoch:

     entry(l+1, t) = (entry(l, t) \ removed(l, t)) ∪ added(l, t)

   with removed/added the block's net unlock/lock effect from its pass-1
   summary.  Everything else — fork/join positions and per-access
   held/released deltas — is block-local pass-1 data, so the lifeguard
   rides the two-pass schedule unchanged, inline or pooled.

   What survives is reported as a may-race.  Within the window the
   analysis is conservative in the sense of Theorem 6.1/6.2: it never
   misses a pair that races under some valid ordering (the lockset and
   happens-before filters only remove pairs ordered in {e every} valid
   ordering), which [Oracle.racecheck_zero_false_negatives] checks
   against enumerated interleavings. *)

module LS = Set.Make (Int)
module Lockset = LS
module Id = Butterfly.Instr_id

type kind = R | W

type race = {
  a : Id.t;
  a_kind : kind;
  b : Id.t;
  b_kind : kind;
  addr : Tracing.Addr.t;
}

type block_stats = {
  instrs : int;
  accesses : int;
  pairs_checked : int;
  races : int;
}

type report = {
  races : race list;
  entry_locks : int list array array;
  block_stats : block_stats array array;
}

(* Test-only fault injection.  The QA mutation smoke test flips this to
   prove the differential fuzz engine detects an unsound window: skipping
   the same-epoch backward wing makes butterfly RaceCheck miss races
   between concurrent blocks of one epoch, which the interleaving oracle
   still exhibits — a zero-false-negative violation the fuzzer must
   surface.  Never set outside tests. *)
module Testing = struct
  let break_same_epoch = ref false
end

let kind_char = function R -> 'R' | W -> 'W'

let pp_race ppf r =
  Format.fprintf ppf "race on %a: %c%a vs %c%a" Tracing.Addr.pp r.addr
    (kind_char r.a_kind) Id.pp r.a (kind_char r.b_kind) Id.pp r.b

let flagged_addrs (r : report) =
  List.map (fun rc -> rc.addr) r.races |> List.sort_uniq Int.compare

let flagged_pairs (r : report) =
  List.map
    (fun rc ->
      if Id.compare rc.a rc.b <= 0 then (rc.a, rc.b, rc.addr)
      else (rc.b, rc.a, rc.addr))
    r.races
  |> List.sort_uniq compare

let fingerprint (r : report) =
  let fp_stats ppf grid =
    Array.iteri
      (fun t row ->
        Array.iteri
          (fun l (s : block_stats) ->
            Format.fprintf ppf "(%d,%d)%d/%d/%d/%d " t l s.instrs s.accesses
              s.pairs_checked s.races)
          row)
      grid
  in
  Format.asprintf "races=[%a] entry_locks=[%a] stats=[%a]"
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " pp_race))
    r.races
    (fun ppf rows ->
      Array.iter
        (fun row ->
          Array.iter
            (fun ms ->
              List.iter (Format.fprintf ppf "%d,") ms;
              Format.fprintf ppf "|")
            row;
          Format.fprintf ppf "; ")
        rows)
    r.entry_locks fp_stats r.block_stats

(* ------------------------------------------------------------------ *)
(* Pass-1 block summaries: everything pass 2 needs to know about a wing
   without rereading it, computed per block with no shared state. *)

type access = {
  ai : int; (* instruction index in block *)
  a_addr : Tracing.Addr.t;
  a_kind : kind;
  a_held : LS.t; (* locks acquired in-block and still held here *)
  a_removed : LS.t; (* entry locks already released here *)
}

type summary = {
  s_accesses : access array; (* index order; per instr: write, then reads *)
  s_fork_max : (int, int) Hashtbl.t; (* child tid -> max Fork index *)
  s_join_min : (int, int) Hashtbl.t; (* target tid -> min Join index *)
  s_added : LS.t; (* locks acquired in-block and held at exit *)
  s_removed : LS.t; (* entry locks released by exit *)
}

(* Fork/join targets outside the grid (or the forking thread itself) are
   recorded in the trace but induce no ordering. *)
let valid_target ~threads ~tid u = u >= 0 && u < threads && u <> tid

let summarize_block ~threads (block : Butterfly.Block.t) =
  let tid = block.tid in
  let accs = ref [] in
  let held = ref LS.empty and removed = ref LS.empty in
  let fork_max = Hashtbl.create 4 and join_min = Hashtbl.create 4 in
  Butterfly.Block.iteri
    (fun id instr ->
      let index = id.Butterfly.Instr_id.index in
      (match Tracing.Instr.sync_effect instr with
      | `Lock m ->
        held := LS.add m !held;
        removed := LS.remove m !removed
      | `Unlock m ->
        held := LS.remove m !held;
        removed := LS.add m !removed
      | `Fork u ->
        (* iterated in index order, so the last replace is the max *)
        if valid_target ~threads ~tid u then Hashtbl.replace fork_max u index
      | `Join u ->
        if valid_target ~threads ~tid u && not (Hashtbl.mem join_min u) then
          Hashtbl.replace join_min u index
      | `None -> ());
      let push a_kind a_addr =
        accs :=
          { ai = index; a_addr; a_kind; a_held = !held; a_removed = !removed }
          :: !accs
      in
      (match Tracing.Instr.writes instr with
      | Some x -> push W x
      | None -> ());
      List.iter (push R) (Tracing.Instr.reads instr))
    block;
  {
    s_accesses = Array.of_list (List.rev !accs);
    s_fork_max = fork_max;
    s_join_min = join_min;
    s_added = !held;
    s_removed = !removed;
  }

(* entry(l+1) from entry(l) and block (l, t)'s summary. *)
let entry_step entry (s : summary) =
  LS.union s.s_added (LS.diff entry s.s_removed)

(* The lockset guarding one access: locally acquired locks still held,
   plus the epoch-entry set minus what the block released before it. *)
let access_lockset entry (a : access) =
  LS.union a.a_held (LS.diff entry a.a_removed)

(* Entry clock of block (l, t): for u <> t, everything of u up to the
   last Fork t in block (l-1, u) — or up to epoch l-2 when there is
   none — happens before all of block (l, t).  [prev] is summary row
   l-1, absent before the first epoch. *)
let entry_clock ~threads ~(prev : summary array option) ~epoch:l ~tid:t :
    Vclock.t =
  Array.init threads (fun u ->
      if u = t then (l, 0)
      else
        match prev with
        | Some row -> (
          match Hashtbl.find_opt row.(u).s_fork_max t with
          | Some f -> (l - 1, f + 1)
          | None -> (l - 1, 0))
        | None -> (l - 1, 0))

(* A summary row sealed by the master before an epoch's fan-out, so that
   pass 2 never rebuilds what every block of the epoch shares:
   - each access's full lockset, [access_lockset entry(e, u) a], computed
     once instead of once per candidate pair;
   - an index from address to the row's accesses as (tid, position)
     pairs, ascending — the order in which scanning the row thread by
     thread, access by access, meets them. *)
type sealed = {
  sl_row : summary array; (* by tid *)
  sl_locksets : LS.t array array; (* [u].(i): lockset of access i of u *)
  sl_by_addr : (Tracing.Addr.t, (int * int) list) Hashtbl.t;
}

let seal ~(entry : LS.t array) (row : summary array) =
  let by_addr = Hashtbl.create 64 in
  for u = Array.length row - 1 downto 0 do
    let accs = row.(u).s_accesses in
    for i = Array.length accs - 1 downto 0 do
      let x = accs.(i).a_addr in
      let later = Option.value (Hashtbl.find_opt by_addr x) ~default:[] in
      Hashtbl.replace by_addr x ((u, i) :: later)
    done
  done;
  {
    sl_row = row;
    sl_locksets =
      Array.mapi
        (fun u s -> Array.map (access_lockset entry.(u)) s.s_accesses)
        row;
    sl_by_addr = by_addr;
  }

let accesses_to (w : sealed) x =
  Option.value (Hashtbl.find_opt w.sl_by_addr x) ~default:[]

(* ------------------------------------------------------------------ *)

let obs_labels = [ ("lifeguard", "racecheck") ]
let m_checks = Obs.Counter.make ~labels:obs_labels "lifeguard.checks"
let m_flags = Obs.Counter.make ~labels:obs_labels "lifeguard.flags"
let g_ls_hwm = Obs.Gauge.make ~labels:obs_labels "lifeguard.sos_size_hwm"

(* Why a candidate pair was cleared: ordered by happens-before, or
   mutually excluded by a common lock. *)
let m_hb_supp = Obs.Counter.make ~labels:obs_labels "racecheck.hb_suppressed"
let m_lock_supp =
  Obs.Counter.make ~labels:obs_labels "racecheck.lock_suppressed"

(* Racecheck does not ride on [Dataflow.Make], so it emits the pipeline
   counters itself to keep [--stats] reports uniform across lifeguards. *)
let pipe_labels = [ ("problem", "racecheck"); ("driver", "batch") ]
let m_epochs = Obs.Counter.make ~labels:pipe_labels "butterfly.epochs_processed"
let m_instrs = Obs.Counter.make ~labels:pipe_labels "butterfly.pass2_instrs"

(* Everything pass 2 learns about one body block, produced without
   touching shared state.  Evaluating block (l, t) reads only inputs
   sealed before its dispatch — the sealed summary rows l-1 and l and
   the block's entry clock — so it can run on a pool worker.  The master
   commits outcomes epoch-major / thread-minor, which reproduces the
   sequential race list, statistics and telemetry byte for byte. *)
type block_outcome = {
  bo_races : race list; (* in enumeration order *)
  bo_stats : block_stats;
  bo_hb_supp : int;
  bo_lock_supp : int;
  bo_max_ls : int; (* largest per-access lockset seen *)
}

(* The pair enumeration discipline makes every window pair checked
   exactly once, by its later block: block (l, t) checks each of its
   accesses (index order) against the wings of epoch l-1 (all u <> t,
   ascending) and the already-committed part of its own epoch (u < t,
   ascending).  The forward wing (l+1, u) is covered when that block
   runs.  The sealed rows' address index yields exactly those partners,
   in exactly that order; [prev] (row l-1) is absent before the first
   epoch. *)
let eval_block ~prev ~cur ~clock ~epoch:l ~tid:t block =
  let sm = cur.sl_row.(t) in
  let races = ref [] in
  let n_pairs = ref 0 and hb_supp = ref 0 and lock_supp = ref 0 in
  let max_ls = ref 0 in
  let check (a : access) ls_a ~wl (w : sealed) (wu, j) =
    let b = w.sl_row.(wu).s_accesses.(j) in
    if a.a_kind = W || b.a_kind = W then begin
      incr n_pairs;
      let hb =
        Vclock.pos_lt (wl, b.ai) (Vclock.get clock wu)
        || wl < l
           &&
           match Hashtbl.find_opt sm.s_join_min wu with
           | Some j -> j < a.ai
           | None -> false
      in
      if hb then incr hb_supp
      else if not (LS.disjoint ls_a w.sl_locksets.(wu).(j)) then
        incr lock_supp
      else
        races :=
          {
            a = Id.make ~epoch:l ~tid:t ~index:a.ai;
            a_kind = a.a_kind;
            b = Id.make ~epoch:wl ~tid:wu ~index:b.ai;
            b_kind = b.a_kind;
            addr = a.a_addr;
          }
          :: !races
    end
  in
  Array.iteri
    (fun i (a : access) ->
      let ls_a = cur.sl_locksets.(t).(i) in
      if LS.cardinal ls_a > !max_ls then max_ls := LS.cardinal ls_a;
      Option.iter
        (fun w ->
          List.iter
            (fun ((u, _) as p) -> if u <> t then check a ls_a ~wl:(l - 1) w p)
            (accesses_to w a.a_addr))
        prev;
      if not !Testing.break_same_epoch then
        let rec earlier = function
          | ((u, _) as p) :: rest when u < t ->
            check a ls_a ~wl:l cur p;
            earlier rest
          | _ -> ()
        in
        earlier (accesses_to cur a.a_addr))
    sm.s_accesses;
  let races = List.rev !races in
  {
    bo_races = races;
    bo_stats =
      {
        instrs = Butterfly.Block.length block;
        accesses = Array.length sm.s_accesses;
        pairs_checked = !n_pairs;
        races = List.length races;
      };
    bo_hb_supp = !hb_supp;
    bo_lock_supp = !lock_supp;
    bo_max_ls = !max_ls;
  }

let zero_stats = { instrs = 0; accesses = 0; pairs_checked = 0; races = 0 }

let commit_obs ~threads ~epoch ~tid o =
  Obs.Scope.with_scope ~epoch ~tid ~phase:"commit" (fun () ->
      Obs.Counter.add m_checks o.bo_stats.pairs_checked;
      Obs.Counter.add m_flags o.bo_stats.races;
      Obs.Counter.add m_hb_supp o.bo_hb_supp;
      Obs.Counter.add m_lock_supp o.bo_lock_supp;
      Obs.Counter.add m_instrs o.bo_stats.instrs;
      if Obs.enabled () then
        Obs.Gauge.set_max g_ls_hwm (float_of_int o.bo_max_ls);
      if tid = threads - 1 then Obs.Counter.incr m_epochs)

(* ------------------------------------------------------------------ *)
(* The epoch-incremental engine, checkpointable between epochs.
   Evaluating epoch l reads summary rows l-1 and l, sealed with the
   entry lock rows l-1 and l, and its own raw row — so raw, summary and
   sealed rows the window has passed are pruned; the entry-lock history
   (part of the report) is kept whole.  Pass-1 summaries are recomputed
   from the retained raw rows on decode rather than serialized:
   [summarize_block] is pure, sealed rows are resealed on first use, and
   entry clocks are rederived per epoch from the summary row behind
   it. *)

module Resumable = struct
  type state = {
    threads : int;
    pool : Butterfly.Domain_pool.t option;
    rows : (int, Tracing.Instr.t array array) Hashtbl.t; (* raw, pruned *)
    summaries : (int, summary array) Hashtbl.t; (* derived from [rows] *)
    sealed : (int, sealed) Hashtbl.t; (* derived: [summaries] + [entry] *)
    entry : (int, LS.t array) Hashtbl.t; (* full history: report content *)
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    mutable races : race list; (* reversed *)
    mutable processed : int;
    mutable epochs_fed : int;
  }

  let create ?pool ~threads () =
    if threads <= 0 then
      invalid_arg "Racecheck.Resumable.create: threads must be > 0";
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    {
      threads;
      pool;
      rows = Hashtbl.create 8;
      summaries = Hashtbl.create 8;
      sealed = Hashtbl.create 4;
      entry = Hashtbl.create 64;
      stats = Hashtbl.create 64;
      races = [];
      processed = 0;
      epochs_fed = 0;
    }

  let threads st = st.threads
  let epochs_fed st = st.epochs_fed

  let commit st ~epoch:l ~tid o =
    st.races <- List.rev_append o.bo_races st.races;
    let srow =
      match Hashtbl.find_opt st.stats l with
      | Some s -> s
      | None ->
        let s = Array.make st.threads zero_stats in
        Hashtbl.replace st.stats l s;
        s
    in
    srow.(tid) <- o.bo_stats;
    commit_obs ~threads:st.threads ~epoch:l ~tid o

  let entry_row st l =
    match Hashtbl.find_opt st.entry l with
    | Some row -> row
    | None -> Array.make st.threads LS.empty

  let advance_entry st l =
    if l >= 1 && not (Hashtbl.mem st.entry l) then begin
      let prev = entry_row st (l - 1) in
      let srow = Hashtbl.find_opt st.summaries (l - 1) in
      Hashtbl.replace st.entry l
        (Array.init st.threads (fun t ->
             match srow with
             | Some row -> entry_step prev.(t) row.(t)
             | None -> prev.(t)))
    end

  (* Summary row [l] sealed with entry lock row [l]; sealed once, on
     first use, and [None] outside the fed rows. *)
  let sealed_row st l =
    match Hashtbl.find_opt st.sealed l with
    | Some _ as w -> w
    | None ->
      Option.map
        (fun row ->
          let w = seal ~entry:(entry_row st l) row in
          Hashtbl.replace st.sealed l w;
          w)
        (Hashtbl.find_opt st.summaries l)

  (* Process epoch [st.processed]: seal its entry lock row, summary rows
     l-1 and l and entry clocks, run pass 2 of every block (fanned out on
     the pool when there is one, committed in tid order), then retire the
     rows the window has passed (raw/summary/sealed rows < l). *)
  let process_one st =
    let l = st.processed in
    advance_entry st l;
    let prev = sealed_row st (l - 1) in
    let cur = Option.get (sealed_row st l) in
    let clocks =
      Array.init st.threads (fun t ->
          entry_clock ~threads:st.threads
            ~prev:(Option.map (fun w -> w.sl_row) prev)
            ~epoch:l ~tid:t)
    in
    let row = Hashtbl.find st.rows l in
    Butterfly.Scheduler.pass2_epoch ?pool:st.pool ~threads:st.threads
      ~pass2:(fun ~epoch ~tid ->
        eval_block ~prev ~cur ~clock:clocks.(tid) ~epoch ~tid
          (Butterfly.Block.make ~epoch ~tid row.(tid)))
      ~commit2:(commit st) l;
    st.processed <- l + 1;
    if l > 0 then begin
      Hashtbl.remove st.rows (l - 1);
      Hashtbl.remove st.summaries (l - 1);
      Hashtbl.remove st.sealed (l - 1)
    end

  (* Epoch l reads nothing of row l+1, but processing still lags feeding
     by one epoch: the lag fixes which rows a snapshot carries, so
     changing it would change snapshot payloads.  [finish] drains the
     rest; the lag is invisible to results. *)
  let feed_epoch st row =
    if Array.length row <> st.threads then
      invalid_arg "Racecheck.Resumable.feed_epoch: wrong row width";
    let epoch = st.epochs_fed in
    Hashtbl.replace st.rows epoch row;
    Hashtbl.replace st.summaries epoch
      (Array.mapi
         (fun tid instrs ->
           Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
               summarize_block ~threads:st.threads
                 (Butterfly.Block.make ~epoch ~tid instrs)))
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
    (* Final lock state past the last epoch. *)
    advance_entry st num_l;
    {
      races = List.rev st.races;
      entry_locks =
        Array.init (num_l + 1) (fun l ->
            Array.map LS.elements (entry_row st l));
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
    W.varint w s.accesses;
    W.varint w s.pairs_checked;
    W.varint w s.races

  let get_stats r =
    let module R = Tracing.Binio.R in
    let instrs = R.varint r in
    let accesses = R.varint r in
    let pairs_checked = R.varint r in
    let races = R.varint r in
    { instrs; accesses; pairs_checked; races }

  let put_race w (rc : race) =
    let module W = Tracing.Binio.W in
    Lg_io.put_id w rc.a;
    W.bool w (rc.a_kind = W);
    Lg_io.put_id w rc.b;
    W.bool w (rc.b_kind = W);
    W.sint w rc.addr

  let get_race r =
    let module R = Tracing.Binio.R in
    let a = Lg_io.get_id r in
    let a_kind = if R.bool r then W else R in
    let b = Lg_io.get_id r in
    let b_kind = if R.bool r then W else R in
    let addr = R.sint r in
    { a; a_kind; b; b_kind; addr }

  let encode st =
    let module W = Tracing.Binio.W in
    let w = W.create () in
    W.varint w st.threads;
    W.varint w st.epochs_fed;
    W.varint w st.processed;
    W.list w put_race st.races;
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w put_stats row)
      (Lg_io.sorted_entries st.stats);
    W.list w
      (fun w (l, row) ->
        W.varint w l;
        W.array w (fun w s -> W.list w (fun w x -> W.sint w x) (LS.elements s)) row)
      (Lg_io.sorted_entries st.entry);
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
      let epochs_fed = R.varint r in
      let processed = R.varint r in
      let races = R.list r get_race in
      let stats = Hashtbl.create 64 in
      ignore
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row = R.array r get_stats in
             if Array.length row <> threads then
               raise (R.Corrupt "stats row width mismatch");
             Hashtbl.replace stats epoch row));
      let entry = Hashtbl.create 64 in
      ignore
        (R.list r (fun r ->
             let l = R.varint r in
             let row =
               R.array r (fun r -> LS.of_list (R.list r (fun r -> R.sint r)))
             in
             if Array.length row <> threads then
               raise (R.Corrupt "entry-lock row width mismatch");
             Hashtbl.replace entry l row));
      let rows = Hashtbl.create 8 in
      ignore
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row = R.array r Lg_io.get_instrs in
             if Array.length row <> threads then
               raise (R.Corrupt "instr row width mismatch");
             Hashtbl.replace rows epoch row));
      R.expect_end r;
      let summaries = Hashtbl.create 8 in
      Hashtbl.iter
        (fun epoch row ->
          Hashtbl.replace summaries epoch
            (Array.mapi
               (fun tid instrs ->
                 summarize_block ~threads
                   (Butterfly.Block.make ~epoch ~tid instrs))
               row))
        rows;
      {
        threads;
        pool;
        rows;
        summaries;
        sealed = Hashtbl.create 4;
        entry;
        stats;
        races;
        processed;
        epochs_fed;
      }
    with
    | st -> Ok st
    | exception R.Corrupt m -> Error ("racecheck state: " ^ m)
end

let run ?pool epochs =
  let st =
    Resumable.create ?pool ~threads:(Butterfly.Epochs.threads epochs) ()
  in
  Butterfly.Epochs.iter_rows epochs (Resumable.feed_epoch st);
  Resumable.finish st
