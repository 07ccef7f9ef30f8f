module IS = Butterfly.Interval_set

type error_kind =
  | Unallocated_access
  | Unallocated_free
  | Double_alloc
  | Metadata_race

type error = {
  kind : error_kind;
  addrs : IS.t;
  where : [ `Instr of Butterfly.Instr_id.t | `Block of int * Tracing.Tid.t ];
}

type block_stats = { instrs : int; mem_events : int; flagged_events : int }

type report = {
  errors : error list;
  flagged_accesses : int;
  total_accesses : int;
  block_stats : block_stats array array;
  sos : IS.t array;
}

let obs_labels = [ ("lifeguard", "addrcheck") ]
let m_checks = Obs.Counter.make ~labels:obs_labels "lifeguard.checks"
let m_flags = Obs.Counter.make ~labels:obs_labels "lifeguard.flags"
let g_set_hwm = Obs.Gauge.make ~labels:obs_labels "lifeguard.sos_size_hwm"
let sp_isolation = Obs.Span.make ~labels:obs_labels "lifeguard.isolation.ns"

let flagged_addresses r =
  List.fold_left (fun acc e -> IS.union acc e.addrs) IS.empty r.errors

let pp_error ppf e =
  let kind =
    match e.kind with
    | Unallocated_access -> "unallocated access"
    | Unallocated_free -> "unallocated free"
    | Double_alloc -> "double alloc"
    | Metadata_race -> "metadata race"
  in
  match e.where with
  | `Instr id ->
    Format.fprintf ppf "%a at %a: %a" Fmt.string kind Butterfly.Instr_id.pp id
      IS.pp e.addrs
  | `Block (l, t) ->
    Format.fprintf ppf "%a in block (%d,%d): %a" Fmt.string kind l t IS.pp
      e.addrs

let fingerprint (r : report) =
  let fp_stats ppf grid =
    Array.iteri
      (fun t row ->
        Array.iteri
          (fun l (s : block_stats) ->
            Format.fprintf ppf "(%d,%d)%d/%d/%d " t l s.instrs s.mem_events
              s.flagged_events)
          row)
      grid
  in
  Format.asprintf "flagged=%d/%d errors=[%a] sos=[%a] stats=[%a]"
    r.flagged_accesses r.total_accesses
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " pp_error))
    r.errors
    (fun ppf -> Array.iter (Format.fprintf ppf "%a; " IS.pp))
    r.sos fp_stats r.block_stats

let zero_stats = { instrs = 0; mem_events = 0; flagged_events = 0 }

let put_error w (e : error) =
  let module W = Tracing.Binio.W in
  W.u8 w
    (match e.kind with
    | Unallocated_access -> 0
    | Unallocated_free -> 1
    | Double_alloc -> 2
    | Metadata_race -> 3);
  IS.put w e.addrs;
  match e.where with
  | `Instr id ->
    W.u8 w 0;
    Butterfly.Instr_id.put w id
  | `Block (l, tid) ->
    W.u8 w 1;
    W.sint w l;
    W.varint w tid

let get_error r =
  let module R = Tracing.Binio.R in
  let kind =
    match R.u8 r with
    | 0 -> Unallocated_access
    | 1 -> Unallocated_free
    | 2 -> Double_alloc
    | 3 -> Metadata_race
    | k -> raise (R.Corrupt (Printf.sprintf "bad error kind %d" k))
  in
  let addrs = IS.get r in
  let where =
    match R.u8 r with
    | 0 -> `Instr (Butterfly.Instr_id.get r)
    | 1 ->
      let l = R.sint r in
      let tid = R.varint r in
      `Block (l, tid)
    | t -> raise (R.Corrupt (Printf.sprintf "bad error site tag %d" t))
  in
  { kind; addrs; where }

let put_stats w (s : block_stats) =
  let module W = Tracing.Binio.W in
  W.varint w s.instrs;
  W.varint w s.mem_events;
  W.varint w s.flagged_events

let get_stats r =
  let module R = Tracing.Binio.R in
  let instrs = R.varint r in
  let mem_events = R.varint r in
  let flagged_events = R.varint r in
  { instrs; mem_events; flagged_events }

module Problem = struct
  let name = "addrcheck"

  module Set = IS

  let flavour = `Must

  let gen _id : Tracing.Instr.t -> IS.t = function
    | Malloc { base; size } -> IS.range base (base + size)
    | _ -> IS.empty

  let kill _id : Tracing.Instr.t -> IS.t = function
    | Free { base; size } -> IS.range base (base + size)
    | _ -> IS.empty
end

module DK = Butterfly.Scheduler.Kernel (Problem)

(* Collect then build once: one sorted bulk construction instead of one
   union per memory instruction. *)
let access_set block =
  Butterfly.Block.fold_left
    (fun acc _id (i : Tracing.Instr.t) ->
      match i with
      | Malloc _ | Free _ -> acc
      | i -> List.rev_append (Tracing.Instr.accesses i) acc)
    [] block
  |> IS.of_list

(* What the kernel accumulates on the master besides the dataflow
   window: the report so far, and the isolation-violation row of the
   epoch being processed. *)
type acc = {
  threads : int;
  isolation : bool;
  mutable instr_errors : error list; (* reversed *)
  mutable block_errors : error list; (* reversed *)
  mutable flagged : int;
  mutable total : int;
  stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
  mutable row_l : int; (* the epoch [row] belongs to, [-1] before any *)
  mutable row : block_stats array; (* [stats] of epoch [row_l] *)
  mutable viol : IS.t array; (* by tid *)
}

(* Views arrive epoch by epoch, so the stats row of the current epoch is
   cached instead of looked up per instruction. *)
let stats_row acc l =
  if l <> acc.row_l then (
    let row =
      match Hashtbl.find_opt acc.stats l with
      | Some row -> row
      | None ->
        let row = Array.make acc.threads zero_stats in
        Hashtbl.replace acc.stats l row;
        row
    in
    acc.row_l <- l;
    acc.row <- row);
  acc.row

let record acc (v : DK.D.instr_view) kind addrs =
  acc.instr_errors <- { kind; addrs; where = `Instr v.id } :: acc.instr_errors

(* A malloc or free of region [r]: an error if [bad] is non-empty, a
   race if [r] meets the violation row.  Whether the event is flagged. *)
let heap_event acc v ~viol kind r bad =
  if IS.is_empty bad then not (IS.disjoint r viol)
  else (
    record acc v kind bad;
    true)

(* Point accesses probe the LSOS and the violation row by membership,
   in access order.  Whether the event is flagged. *)
let rec point_accesses acc (v : DK.D.instr_view) ~viol flagged = function
  | [] -> flagged
  | a :: rest ->
    let err = not (IS.mem a v.lsos_before) in
    if err then record acc v Unallocated_access (IS.singleton a);
    point_accesses acc v ~viol (flagged || err || IS.mem a viol) rest

(* Count one instruction: the totals, and its block's stats row in one
   write. *)
let count acc (v : DK.D.instr_view) ~mem_event ~flagged =
  if mem_event then (
    acc.total <- acc.total + 1;
    Obs.Counter.incr m_checks);
  if flagged then (
    acc.flagged <- acc.flagged + 1;
    Obs.Counter.incr m_flags);
  let { Butterfly.Instr_id.epoch = l; tid; _ } = v.id in
  let row = stats_row acc l in
  let s = row.(tid) in
  row.(tid) <-
    {
      instrs = s.instrs + 1;
      mem_events = (if mem_event then s.mem_events + 1 else s.mem_events);
      flagged_events =
        (if flagged then s.flagged_events + 1 else s.flagged_events);
    }

(* The per-instruction check, against the violation row of the view's
   epoch: errors test the LSOS, races the footprint against the
   violation row. *)
let check acc (v : DK.D.instr_view) =
  let viol = acc.viol.(v.id.tid) in
  match v.instr with
  | Malloc { base; size } ->
    let r = IS.range base (base + size) in
    count acc v ~mem_event:true
      ~flagged:
        (heap_event acc v ~viol Double_alloc r (IS.inter r v.lsos_before))
  | Free { base; size } ->
    let r = IS.range base (base + size) in
    count acc v ~mem_event:true
      ~flagged:
        (heap_event acc v ~viol Unallocated_free r (IS.diff r v.lsos_before))
  | i -> (
    match Tracing.Instr.accesses i with
    | [] -> count acc v ~mem_event:false ~flagged:false
    | accesses ->
      count acc v ~mem_event:true
        ~flagged:(point_accesses acc v ~viol false accesses))

(* ---------------------------------------------------------------- *)
(* The window kernel: the dataflow kernel, whose view sink is the check
   above, plus the isolation check.  The key locality fact (Section
   6.1): the violation set of block (l, t) reads state-change/access
   footprints of rows l-1..l+1 only, all resident when epoch l is
   processed — so the master step computes violation row l from the
   pass-1 summaries, which carry each block's access footprint next to
   its dataflow summary (state changes are GEN ∪ KILL). *)

module Kernel = struct
  module W = Tracing.Binio.W
  module R = Tracing.Binio.R

  let name = Problem.name

  type env = unit
  type params = bool (* isolation *)
  type summary = { df : DK.summary; access : IS.t }
  type state = { df : DK.state; acc : acc }
  type sealed = DK.sealed
  type outcome = DK.outcome
  type nonrec report = report

  let rows_behind = DK.rows_behind

  (* The dataflow kernel's view sink is the check over [acc]. *)
  let with_check acc df_of = { df = df_of (check acc); acc }

  let create ~threads () isolation =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    with_check
      {
        threads;
        isolation;
        instr_errors = [];
        block_errors = [];
        flagged = 0;
        total = 0;
        stats = Hashtbl.create 64;
        row_l = -1;
        row = [||];
        viol = [||];
      }
      (fun sink -> DK.create ~threads sink ())

  let summarize (st : state) block =
    { df = DK.summarize st.df block; access = access_set block }

  let df_row row l = Option.map (Array.map (fun (s : summary) -> s.df)) (row l)

  (* Rows outside the execution contribute empty footprints: the grid is
     empty there. *)
  let violation_row acc ~row l =
    let threads = acc.threads in
    if not acc.isolation then Array.make threads IS.empty
    else
      Obs.Scope.with_scope ~epoch:l ~phase:"isolation" @@ fun () ->
      Obs.Span.time sp_isolation (fun () ->
          (* Rows l-1 .. l+1, indexed by l' - l + 1. *)
          let rows = Array.init 3 (fun i -> row (l - 1 + i)) in
          let of_row f =
            Array.map
              (function
                | Some r -> Array.map f r | None -> Array.make threads IS.empty)
              rows
          in
          let sc =
            of_row (fun (s : summary) -> IS.union s.df.gen_union s.df.kill_union)
          and ac = of_row (fun (s : summary) -> s.access) in
          Array.init threads (fun tid ->
              let s_change = sc.(1).(tid) and s_access = ac.(1).(tid) in
              let wing_change = ref [] and wing_access = ref [] in
              for i = 0 to 2 do
                for t' = 0 to threads - 1 do
                  if t' <> tid then (
                    wing_change := sc.(i).(t') :: !wing_change;
                    wing_access := ac.(i).(t') :: !wing_access)
                done
              done;
              (* (∪w) ∩ x distributed as ∪(w ∩ x): state changes are
                 sparse, so every intersection is small, whereas the
                 union of nine access footprints is about the whole
                 heap. *)
              let wing_inter ws x = IS.union_all (List.map (IS.inter x) ws) in
              IS.union
                (wing_inter !wing_change s_change)
                (IS.union
                   (wing_inter !wing_change s_access)
                   (wing_inter !wing_access s_change))))

  let step st ~inline ~row l =
    st.acc.viol <- violation_row st.acc ~row l;
    DK.step st.df ~inline ~row:(df_row row) l

  let eval_block = DK.eval_block

  (* Block (l, tid)'s views, then its isolation violation. *)
  let commit st ~epoch:l ~tid views =
    DK.commit st.df ~epoch:l ~tid views;
    let v = st.acc.viol.(tid) in
    if not (IS.is_empty v) then (
      Obs.Counter.incr m_flags;
      st.acc.block_errors <-
        { kind = Metadata_race; addrs = v; where = `Block (l, tid) }
        :: st.acc.block_errors)

  let report st ~row ~epochs:num_l =
    let sos_levels = DK.report st.df ~row:(df_row row) ~epochs:num_l in
    let acc = st.acc in
    if Obs.enabled () then
      Array.iter
        (fun s -> Obs.Gauge.set_max g_set_hwm (float_of_int (IS.cardinal s)))
        sos_levels;
    {
      errors = List.rev acc.instr_errors @ List.rev acc.block_errors;
      flagged_accesses = acc.flagged;
      total_accesses = acc.total;
      block_stats =
        Array.init acc.threads (fun tid ->
            Array.init num_l (fun l ->
                match Hashtbl.find_opt acc.stats l with
                | Some row -> row.(tid)
                | None -> zero_stats));
      sos = sos_levels;
    }

  let put_params = W.bool
  let get_params = R.bool

  let put_body w st =
    let acc = st.acc in
    W.varint w acc.flagged;
    W.varint w acc.total;
    W.list w put_error acc.instr_errors;
    W.list w put_error acc.block_errors;
    Lg_io.put_rows w put_stats acc.stats;
    DK.put_body w st.df

  let get_body r ~threads ~processed () isolation =
    let flagged = R.varint r in
    let total = R.varint r in
    let instr_errors = R.list r get_error in
    let block_errors = R.list r get_error in
    let stats = Lg_io.get_rows r ~threads ~what:"stats" get_stats in
    with_check
      {
        threads;
        isolation;
        instr_errors;
        block_errors;
        flagged;
        total;
        stats;
        row_l = -1;
        row = [||];
        viol = [||];
      }
      (fun sink -> DK.get_body r ~threads ~processed sink ())
end

module Engine = Butterfly.Window.Make (Kernel)

let run ?(isolation = true) ?pool epochs = Engine.run ?pool () isolation epochs
