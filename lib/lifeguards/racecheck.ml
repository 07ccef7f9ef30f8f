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
   without rereading it, computed per block with no shared state.

   Accesses are stored field by field, in index order (per instruction:
   the write, then the reads).  Their locksets are not: a block's lock
   sets change only at its [Lock]/[Unlock] instructions, so each access
   names the lock state it runs under.  Lock state 0 is the block's
   entry; a new state starts at the first access after a change, so a
   critical section's accesses share one state and a lock operation
   with no access after it adds none. *)

type summary = {
  s_index : int array; (* access -> instruction index in block *)
  s_addr : Tracing.Addr.t array; (* access -> address *)
  s_meta : int array; (* access -> (lock state lsl 1) lor (1 if a write) *)
  s_held : LS.t array; (* lock state -> locks acquired in-block, held *)
  s_released : LS.t array; (* lock state -> entry locks released *)
  s_fork_max : (int, int) Hashtbl.t; (* child tid -> max Fork index *)
  s_join_min : (int, int) Hashtbl.t; (* target tid -> min Join index *)
  s_added : LS.t; (* locks acquired in-block and held at exit *)
  s_removed : LS.t; (* entry locks released by exit *)
}

let is_write meta = meta land 1 = 1
let lock_state meta = meta lsr 1
let kind_of_meta meta = if is_write meta then W else R

(* Fork/join targets outside the grid (or the forking thread itself) are
   recorded in the trace but induce no ordering. *)
let valid_target ~threads ~tid u = u >= 0 && u < threads && u <> tid

(* How many accesses an instruction contributes to pairing: its write,
   then its reads ([Instr.writes], then [Instr.reads]); a binop with
   equal operands reads once. *)
let access_count : Tracing.Instr.t -> int = function
  | Assign_const _ | Taint_source _ | Untaint _ | Read _ | Jump_via _
  | Syscall_arg _ ->
    1
  | Assign_unop _ -> 2
  | Assign_binop (_, a, b) -> if Tracing.Addr.equal a b then 2 else 3
  | Malloc _ | Free _ | Lock _ | Unlock _ | Fork _ | Join _ | Nop -> 0

(* Pass 1 walks the instruction array by index and matches the
   constructors itself.  A counting sweep sizes the arrays; the filling
   sweep then allocates nothing per instruction but the lock sets of a
   [Lock]/[Unlock]. *)
let summarize_block ~threads (block : Butterfly.Block.t) =
  let tid = block.tid and instrs = block.instrs in
  let n = ref 0 and states = ref 1 and synced = ref false in
  for k = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs k with
    | Lock _ | Unlock _ -> synced := true
    | i ->
      let c = access_count i in
      if c > 0 && !synced then begin
        incr states;
        synced := false
      end;
      n := !n + c
  done;
  let s_index = Array.make !n 0 and s_addr = Array.make !n 0 in
  let s_meta = Array.make !n 0 in
  let s_held = Array.make !states LS.empty in
  let s_released = Array.make !states LS.empty in
  let fork_max = Hashtbl.create 4 and join_min = Hashtbl.create 4 in
  let held = ref LS.empty and released = ref LS.empty in
  let next = ref 0 and state = ref 0 and changed = ref false in
  let push ai write x =
    if !changed then begin
      let s = !state + 1 in
      s_held.(s) <- !held;
      s_released.(s) <- !released;
      state := s;
      changed := false
    end;
    let k = !next in
    s_index.(k) <- ai;
    s_addr.(k) <- x;
    s_meta.(k) <- (!state lsl 1) lor write;
    next := k + 1
  in
  for ai = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs ai with
    | Assign_const x | Taint_source x | Untaint x -> push ai 1 x
    | Assign_unop (x, a) ->
      push ai 1 x;
      push ai 0 a
    | Assign_binop (x, a, b) ->
      push ai 1 x;
      push ai 0 a;
      if not (Tracing.Addr.equal a b) then push ai 0 b
    | Read a | Jump_via a | Syscall_arg a -> push ai 0 a
    | Lock m ->
      held := LS.add m !held;
      released := LS.remove m !released;
      changed := true
    | Unlock m ->
      held := LS.remove m !held;
      released := LS.add m !released;
      changed := true
    | Fork u ->
      (* swept in index order, so the last replace is the max *)
      if valid_target ~threads ~tid u then Hashtbl.replace fork_max u ai
    | Join u ->
      if valid_target ~threads ~tid u && not (Hashtbl.mem join_min u) then
        Hashtbl.replace join_min u ai
    | Malloc _ | Free _ | Nop -> ()
  done;
  {
    s_index;
    s_addr;
    s_meta;
    s_held;
    s_released;
    s_fork_max = fork_max;
    s_join_min = join_min;
    s_added = !held;
    s_removed = !released;
  }

(* entry(l+1) from entry(l) and block (l, t)'s summary. *)
let entry_step entry (s : summary) =
  LS.union s.s_added (LS.diff entry s.s_removed)

(* The lockset guarding the accesses of one lock state: locally acquired
   locks still held, plus the epoch-entry set minus what the block
   released before them. *)
let state_lockset entry held released = LS.union held (LS.diff entry released)

(* Entry clock of block (l, t): for u <> t, everything of u up to the
   last Fork t in block (l-1, u) — or up to epoch l-2 when there is
   none — happens before all of block (l, t).  [prev] is summary row
   l-1, absent before the first epoch. *)
let entry_clock ~threads ~(prev : summary array option) ~epoch:l ~tid:t :
    Vclock.t =
  let own = (l, 0) and before = (l - 1, 0) in
  Array.init threads (fun u ->
      if u = t then own
      else
        match prev with
        | Some row -> (
          match Hashtbl.find_opt row.(u).s_fork_max t with
          | Some f -> (l - 1, f + 1)
          | None -> before)
        | None -> before)

(* Address-keyed tables.  Addresses are 8-byte aligned, so an identity
   hash would leave most buckets empty; [Hashtbl.hash] spreads them. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = Tracing.Addr.t

  let equal = Tracing.Addr.equal
  let hash = Hashtbl.hash
end)

(* A (tid, position) pair packed into one int, ordered as the pair
   (positions index a block's accesses, far below 2^32). *)
let pack u i = (u lsl 32) lor i
let packed_tid p = p lsr 32
let packed_pos p = p land 0xFFFF_FFFF

(* A summary row sealed by the master before an epoch's fan-out, so that
   pass 2 never rebuilds what every block of the epoch shares:
   - the full lockset of each lock state, [state_lockset entry(e, u)],
     computed once instead of once per candidate pair;
   - an index from address to the row's accesses as packed (tid,
     position) ints, ascending — the order in which scanning the row
     thread by thread, access by access, meets them. *)
type sealed = {
  sl_row : summary array; (* by tid *)
  sl_locksets : LS.t array array; (* [u].(k): lockset of u's lock state k *)
  sl_by_addr : int list Addr_tbl.t;
}

let seal ~(entry : LS.t array) (row : summary array) =
  let by_addr = Addr_tbl.create 64 in
  for u = Array.length row - 1 downto 0 do
    let addrs = row.(u).s_addr in
    for i = Array.length addrs - 1 downto 0 do
      let x = addrs.(i) in
      match Addr_tbl.find_opt by_addr x with
      | Some later -> Addr_tbl.replace by_addr x (pack u i :: later)
      | None -> Addr_tbl.add by_addr x [ pack u i ]
    done
  done;
  {
    sl_row = row;
    sl_locksets =
      Array.mapi
        (fun u s -> Array.map2 (state_lockset entry.(u)) s.s_held s.s_released)
        row;
    sl_by_addr = by_addr;
  }

let accesses_to (w : sealed) x =
  match Addr_tbl.find w.sl_by_addr x with
  | ps -> ps
  | exception Not_found -> []

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
   epoch.

   A wing access B at (wl, wu, bi) happens before A at (l, t, ai) when
   it lies below component wu of the block's entry clock, or when B is
   in epoch l-1 and the block joins wu before A.  [joins] holds the
   block's first valid [Join u] index per u, [max_int] when none. *)
let eval_block ~prev ~cur ~clock ~epoch:l ~tid:t block =
  let sm = cur.sl_row.(t) in
  let races = ref [] in
  let n_pairs = ref 0 and hb_supp = ref 0 and lock_supp = ref 0 in
  let joins = Array.make (Array.length cur.sl_row) max_int in
  Hashtbl.iter (fun u j -> joins.(u) <- j) sm.s_join_min;
  (* Access [i] of this block against access [p] of row [w], epoch [wl]. *)
  let check i ls_a ~wl (w : sealed) p =
    let wu = packed_tid p and j = packed_pos p in
    let wb = w.sl_row.(wu) in
    let a_meta = sm.s_meta.(i) and b_meta = wb.s_meta.(j) in
    if is_write a_meta || is_write b_meta then begin
      incr n_pairs;
      let ai = sm.s_index.(i) and bi = wb.s_index.(j) in
      let cl, ci = clock.(wu) in
      if wl < cl || (wl = cl && bi < ci) || (wl < l && joins.(wu) < ai) then
        incr hb_supp
      else if
        not (LS.disjoint ls_a w.sl_locksets.(wu).(lock_state b_meta))
      then incr lock_supp
      else
        races :=
          {
            a = Id.make ~epoch:l ~tid:t ~index:ai;
            a_kind = kind_of_meta a_meta;
            b = Id.make ~epoch:wl ~tid:wu ~index:bi;
            b_kind = kind_of_meta b_meta;
            addr = sm.s_addr.(i);
          }
          :: !races
    end
  in
  let rec behind i ls_a w = function
    | p :: rest ->
      if packed_tid p <> t then check i ls_a ~wl:(l - 1) w p;
      behind i ls_a w rest
    | [] -> ()
  in
  let rec earlier i ls_a = function
    | p :: rest when packed_tid p < t ->
      check i ls_a ~wl:l cur p;
      earlier i ls_a rest
    | _ -> ()
  in
  (* Only the lockset-size gauge reads it, under a live sink. *)
  let track_ls = Obs.enabled () and max_ls = ref 0 in
  let locksets = cur.sl_locksets.(t) in
  let n = Array.length sm.s_addr in
  for i = 0 to n - 1 do
    let x = sm.s_addr.(i) and ls_a = locksets.(lock_state sm.s_meta.(i)) in
    if track_ls then (
      let c = LS.cardinal ls_a in
      if c > !max_ls then max_ls := c);
    (match prev with
    | Some w -> behind i ls_a w (accesses_to w x)
    | None -> ());
    if not !Testing.break_same_epoch then earlier i ls_a (accesses_to cur x)
  done;
  let races = List.rev !races in
  {
    bo_races = races;
    bo_stats =
      {
        instrs = Butterfly.Block.length block;
        accesses = n;
        pairs_checked = !n_pairs;
        races = List.length races;
      };
    bo_hb_supp = !hb_supp;
    bo_lock_supp = !lock_supp;
    bo_max_ls = !max_ls;
  }

(* ------------------------------------------------------------------ *)
(* The window kernel.  Evaluating epoch l reads summary rows l-1 and l
   (the window's resident summaries), sealed with the entry lock rows
   l-1 and l.  The sealed row of epoch l is kept for epoch l+1, where it
   is the previous row; after a decode it is resealed on first use.  The
   entry-lock history (part of the report) is kept whole, and entry
   clocks are rederived per epoch from the summary row behind it. *)

module Kernel = struct
  module W = Tracing.Binio.W
  module R = Tracing.Binio.R

  let name = "racecheck"

  type env = unit
  type params = unit
  type nonrec summary = summary

  type state = {
    threads : int;
    entry : (int, LS.t array) Hashtbl.t; (* full history: report content *)
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    mutable last_sealed : (int * sealed) option;
    mutable races : race list; (* reversed *)
  }

  type nonrec sealed = {
    prev : sealed option;
    cur : sealed;
    clocks : Vclock.t array;
  }

  type outcome = block_outcome
  type nonrec report = report

  let rows_behind = 1
  let zero_stats = { instrs = 0; accesses = 0; pairs_checked = 0; races = 0 }

  let make ~threads ~entry ~stats ~races =
    { threads; entry; stats; last_sealed = None; races }

  let create ~threads () () =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    make ~threads ~entry:(Hashtbl.create 64) ~stats:(Hashtbl.create 64)
      ~races:[]

  let summarize st block = summarize_block ~threads:st.threads block

  let entry_row st l =
    match Hashtbl.find_opt st.entry l with
    | Some row -> row
    | None -> Array.make st.threads LS.empty

  let advance_entry st ~row l =
    if l >= 1 && not (Hashtbl.mem st.entry l) then begin
      let prev = entry_row st (l - 1) in
      let srow = row (l - 1) in
      Hashtbl.replace st.entry l
        (Array.init st.threads (fun t ->
             match srow with
             | Some row -> entry_step prev.(t) row.(t)
             | None -> prev.(t)))
    end

  (* Summary row [l] sealed with entry lock row [l]; [None] outside the
     fed rows. *)
  let sealed_row st ~row l =
    match st.last_sealed with
    | Some (l', w) when l' = l -> Some w
    | _ -> Option.map (seal ~entry:(entry_row st l)) (row l)

  (* Seal the entry lock row l, summary rows l-1 and l and the entry
     clocks of epoch l. *)
  let step st ~inline:_ ~row l =
    advance_entry st ~row l;
    let prev = sealed_row st ~row (l - 1) in
    let cur = Option.get (sealed_row st ~row l) in
    st.last_sealed <- Some (l, cur);
    let clocks =
      Array.init st.threads (fun t ->
          entry_clock ~threads:st.threads
            ~prev:(Option.map (fun w -> w.sl_row) prev)
            ~epoch:l ~tid:t)
    in
    { prev; cur; clocks }

  let eval_block s ~epoch ~tid block =
    eval_block ~prev:s.prev ~cur:s.cur ~clock:s.clocks.(tid) ~epoch ~tid block

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
    Obs.Counter.add m_checks o.bo_stats.pairs_checked;
    Obs.Counter.add m_flags o.bo_stats.races;
    Obs.Counter.add m_hb_supp o.bo_hb_supp;
    Obs.Counter.add m_lock_supp o.bo_lock_supp;
    if Obs.enabled () then Obs.Gauge.set_max g_ls_hwm (float_of_int o.bo_max_ls)

  let report st ~row ~epochs:num_l =
    (* Final lock state past the last epoch. *)
    advance_entry st ~row num_l;
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

  let put_params _ () = ()
  let get_params _ = ()

  let put_stats w (s : block_stats) =
    W.varint w s.instrs;
    W.varint w s.accesses;
    W.varint w s.pairs_checked;
    W.varint w s.races

  let get_stats r =
    let instrs = R.varint r in
    let accesses = R.varint r in
    let pairs_checked = R.varint r in
    let races = R.varint r in
    { instrs; accesses; pairs_checked; races }

  let put_race w (rc : race) =
    Butterfly.Instr_id.put w rc.a;
    W.bool w (rc.a_kind = W);
    Butterfly.Instr_id.put w rc.b;
    W.bool w (rc.b_kind = W);
    W.sint w rc.addr

  let get_race r =
    let a = Butterfly.Instr_id.get r in
    let a_kind = if R.bool r then W else R in
    let b = Butterfly.Instr_id.get r in
    let b_kind = if R.bool r then W else R in
    let addr = R.sint r in
    { a; a_kind; b; b_kind; addr }

  let put_body w st =
    W.list w put_race st.races;
    Lg_io.put_rows w put_stats st.stats;
    Lg_io.put_rows w
      (fun w s -> W.list w (fun w x -> W.sint w x) (LS.elements s))
      st.entry

  let get_body r ~threads ~processed:_ () () =
    let races = R.list r get_race in
    let stats = Lg_io.get_rows r ~threads ~what:"stats" get_stats in
    let entry =
      Lg_io.get_rows r ~threads ~what:"entry-lock" (fun r ->
          LS.of_list (R.list r (fun r -> R.sint r)))
    in
    make ~threads ~entry ~stats ~races
end

module Engine = Butterfly.Window.Make (Kernel)

module Pass1 = struct
  type t = summary

  let summarize = summarize_block

  type access = {
    index : int;
    addr : Tracing.Addr.t;
    kind : kind;
    held : int list;
    released : int list;
  }

  type view = {
    accesses : access list;
    fork_max : (int * int) list;
    join_min : (int * int) list;
    added : int list;
    removed : int list;
  }

  let bindings tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let view (s : t) =
    {
      accesses =
        List.init (Array.length s.s_addr) (fun i ->
            let meta = s.s_meta.(i) in
            {
              index = s.s_index.(i);
              addr = s.s_addr.(i);
              kind = kind_of_meta meta;
              held = LS.elements s.s_held.(lock_state meta);
              released = LS.elements s.s_released.(lock_state meta);
            });
      fork_max = bindings s.s_fork_max;
      join_min = bindings s.s_join_min;
      added = LS.elements s.s_added;
      removed = LS.elements s.s_removed;
    }
end

let run ?pool epochs = Engine.run ?pool () () epochs
