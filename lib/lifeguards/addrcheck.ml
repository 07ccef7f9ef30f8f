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
  Lg_io.put_is w e.addrs;
  match e.where with
  | `Instr id ->
    W.u8 w 0;
    Lg_io.put_id w id
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
  let addrs = Lg_io.get_is r in
  let where =
    match R.u8 r with
    | 0 -> `Instr (Lg_io.get_id r)
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

  let gen _id i =
    match Tracing.Instr.alloc_effect i with
    | `Alloc (base, size) -> IS.range base (base + size)
    | `Free _ | `None -> IS.empty

  let kill _id i =
    match Tracing.Instr.alloc_effect i with
    | `Free (base, size) -> IS.range base (base + size)
    | `Alloc _ | `None -> IS.empty
end

module A = Butterfly.Dataflow.Make (Problem)
module S = Butterfly.Scheduler.Make (Problem)

(* Does instruction [i]'s footprint meet [viol]?  Point accesses probe
   membership directly instead of building a set per instruction. *)
let footprint_meets i viol =
  match Tracing.Instr.alloc_effect i with
  | `Alloc (base, size) | `Free (base, size) ->
    not (IS.disjoint (IS.range base (base + size)) viol)
  | `None -> List.exists (fun a -> IS.mem a viol) (Tracing.Instr.accesses i)

(* Collect then build once: one sorted bulk construction instead of one
   union per memory instruction. *)
let access_set block =
  Butterfly.Block.fold_left
    (fun acc _id i ->
      match Tracing.Instr.alloc_effect i with
      | `Alloc _ | `Free _ -> acc
      | `None -> List.rev_append (Tracing.Instr.accesses i) acc)
    [] block
  |> IS.of_list

(* The per-instruction check.  [violation_of l tid] is block (l, tid)'s
   isolation-violation set, materialized lazily by the engine below. *)
let make_on_instr ~violation_of ~bump ~instr_errors ~flagged ~total
    (v : A.instr_view) =
  let { Butterfly.Instr_id.epoch = l; tid; _ } = v.id in
  bump tid l (fun s -> { s with instrs = s.instrs + 1 });
  if Tracing.Instr.is_memory_event v.instr then (
    incr total;
    Obs.Counter.incr m_checks;
    bump tid l (fun s -> { s with mem_events = s.mem_events + 1 }));
  let local_errs =
    match Tracing.Instr.alloc_effect v.instr with
    | `Alloc (base, size) ->
      let bad = IS.inter (IS.range base (base + size)) v.lsos_before in
      if IS.is_empty bad then []
      else
        [
          {
            kind = Double_alloc;
            addrs = bad;
            where = `Instr v.id;
          };
        ]
    | `Free (base, size) ->
      let bad = IS.diff (IS.range base (base + size)) v.lsos_before in
      if IS.is_empty bad then []
      else
        [
          {
            kind = Unallocated_free;
            addrs = bad;
            where = `Instr v.id;
          };
        ]
    | `None ->
      List.filter_map
        (fun a ->
          if IS.mem a v.lsos_before then None
          else
            Some
              {
                kind = Unallocated_access;
                addrs = IS.singleton a;
                where = `Instr v.id;
              })
        (Tracing.Instr.accesses v.instr)
  in
  instr_errors := List.rev_append local_errs !instr_errors;
  let races = footprint_meets v.instr (violation_of l tid) in
  if (local_errs <> [] || races) && Tracing.Instr.is_memory_event v.instr
  then (
    incr flagged;
    Obs.Counter.incr m_flags;
    bump tid l (fun s -> { s with flagged_events = s.flagged_events + 1 }))

(* ---------------------------------------------------------------- *)
(* The epoch-incremental engine.  The streaming scheduler carries the
   dataflow window; what AddrCheck adds on top is the isolation check.
   The key locality fact (Section 6.1): the violation set of block
   (l, t) reads state-change/access footprints of rows l-1..l+1 only,
   and the scheduler processes epoch l only once row l+1 is closed — so
   violation rows can be materialized lazily, and row footprints older
   than the window pruned. *)

module Resumable = struct
  (* Fact sets are serialized as canonical interval lists. *)
  let set_codec = { S.put_set = Lg_io.put_is; get_set = Lg_io.get_is }

  (* Per-row, per-tid footprints feeding the isolation check. *)
  type row_facts = { sc : IS.t array;  (* GEN ∪ KILL *) ac : IS.t array }

  type state = {
    sched : S.t;
    threads : int;
    isolation : bool;
    instr_errors : error list ref; (* reversed *)
    mutable block_errors : error list; (* reversed *)
    flagged : int ref;
    total : int ref;
    stats : (int, block_stats array) Hashtbl.t; (* epoch -> per-tid *)
    facts : (int, row_facts) Hashtbl.t; (* sliding window, pruned *)
    viol : (int, IS.t array) Hashtbl.t; (* lazy violation rows *)
    mutable finalized : int; (* rows 0..finalized-1 emitted block errors *)
    mutable epochs_fed : int;
  }

  (* Rows absent from [facts] (before epoch 0, or past the last row fed)
     contribute empty footprints: the grid is empty outside the
     execution. *)
  let violation_row ~threads ~isolation ~facts ~viol l =
    match Hashtbl.find_opt viol l with
    | Some v -> v
    | None ->
      let v =
        if not isolation then Array.make threads IS.empty
        else
          Obs.Scope.with_scope ~epoch:l ~phase:"isolation" @@ fun () ->
          Obs.Span.time sp_isolation (fun () ->
              let sc l' t' =
                match Hashtbl.find_opt facts l' with
                | Some f -> f.sc.(t')
                | None -> IS.empty
              and ac l' t' =
                match Hashtbl.find_opt facts l' with
                | Some f -> f.ac.(t')
                | None -> IS.empty
              in
              Array.init threads (fun tid ->
                  let s_change = sc l tid and s_access = ac l tid in
                  let wing_change = ref [] and wing_access = ref [] in
                  for l' = l - 1 to l + 1 do
                    for t' = 0 to threads - 1 do
                      if t' <> tid then (
                        wing_change := sc l' t' :: !wing_change;
                        wing_access := ac l' t' :: !wing_access)
                    done
                  done;
                  (* (∪w) ∩ x distributed as ∪(w ∩ x): state changes
                     are sparse, so every intersection is small, whereas
                     the union of nine access footprints is about the
                     whole heap. *)
                  let wing_inter ws x =
                    IS.union_all (List.map (IS.inter x) ws)
                  in
                  IS.union
                    (wing_inter !wing_change s_change)
                    (IS.union
                       (wing_inter !wing_change s_access)
                       (wing_inter !wing_access s_change))))
      in
      Hashtbl.replace viol l v;
      v

  let make_state ?pool ~isolation ~threads ~instr_errors ~block_errors
      ~flagged ~total ~stats ~facts ~finalized ~epochs_fed ~sched_of () =
    let viol = Hashtbl.create 8 in
    let bump tid l f =
      let row =
        match Hashtbl.find_opt stats l with
        | Some row -> row
        | None ->
          let row = Array.make threads zero_stats in
          Hashtbl.replace stats l row;
          row
      in
      row.(tid) <- f row.(tid)
    in
    let violation_of l tid =
      (violation_row ~threads ~isolation ~facts ~viol l).(tid)
    in
    let on_instr =
      make_on_instr ~violation_of ~bump ~instr_errors ~flagged ~total
    in
    let sched = sched_of ?pool ~on_instr () in
    {
      sched;
      threads;
      isolation;
      instr_errors;
      block_errors;
      flagged;
      total;
      stats;
      facts;
      viol;
      finalized;
      epochs_fed;
    }

  let create ?pool ?(isolation = true) ~threads () =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    make_state ?pool ~isolation ~threads ~instr_errors:(ref [])
      ~block_errors:[] ~flagged:(ref 0) ~total:(ref 0)
      ~stats:(Hashtbl.create 64) ~facts:(Hashtbl.create 8) ~finalized:0
      ~epochs_fed:0
      ~sched_of:(fun ?pool ~on_instr () ->
        S.create ?pool ~threads ~on_instr ())
      ()

  let epochs_fed st = st.epochs_fed

  (* Violation row [e] is final once row [e+1] is closed; emit its
     block-level errors and retire footprint rows the window has passed
     (rows < e are never read again). *)
  let finalize_rows st ~upto =
    while st.finalized <= upto do
      let l = st.finalized in
      let v =
        violation_row ~threads:st.threads ~isolation:st.isolation
          ~facts:st.facts ~viol:st.viol l
      in
      for tid = 0 to st.threads - 1 do
        if not (IS.is_empty v.(tid)) then (
          Obs.Counter.incr m_flags;
          st.block_errors <-
            {
              kind = Metadata_race;
              addrs = v.(tid);
              where = `Block (l, tid);
            }
            :: st.block_errors)
      done;
      Hashtbl.remove st.viol l;
      if l > 0 then Hashtbl.remove st.facts (l - 1);
      st.finalized <- l + 1
    done

  let record_facts st row =
    let epoch = st.epochs_fed in
    let sc =
      Array.mapi
        (fun tid instrs ->
          let s = A.summarize (Butterfly.Block.make ~epoch ~tid instrs) in
          IS.union s.A.gen_union s.A.kill_union)
        row
    and ac =
      Array.mapi
        (fun tid instrs ->
          access_set (Butterfly.Block.make ~epoch ~tid instrs))
        row
    in
    Hashtbl.replace st.facts epoch { sc; ac }

  (* Heartbeats go out as separators, not terminators (see
     {!Initcheck.Resumable.feed_epoch}).  The separator heartbeats close
     row m-1, which lets the scheduler process epoch m-2 — whose
     violation row draws on footprints m-3..m-1, all recorded — and then
     lets us finalize that same row's block-level errors. *)
  let feed_epoch st row =
    if Array.length row <> st.threads then
      invalid_arg "Addrcheck.Resumable.feed_epoch: wrong row width";
    if st.epochs_fed > 0 then
      for tid = 0 to st.threads - 1 do
        S.feed st.sched tid Tracing.Event.Heartbeat
      done;
    finalize_rows st ~upto:(st.epochs_fed - 2);
    record_facts st row;
    Array.iteri
      (fun tid instrs ->
        Array.iter
          (fun i -> S.feed st.sched tid (Tracing.Event.Instr i))
          instrs)
      row;
    st.epochs_fed <- st.epochs_fed + 1

  let finish st =
    (* An empty program still owns one (empty) epoch — mirror
       [Epochs.of_program]. *)
    if st.epochs_fed = 0 then feed_epoch st (Array.make st.threads [||]);
    S.finish st.sched;
    finalize_rows st ~upto:(st.epochs_fed - 1);
    let num_l = st.epochs_fed in
    let sos_levels = S.sos_history st.sched in
    let stats =
      Array.init st.threads (fun tid ->
          Array.init num_l (fun l ->
              match Hashtbl.find_opt st.stats l with
              | Some row -> row.(tid)
              | None -> zero_stats))
    in
    if Obs.enabled () then
      Array.iter
        (fun s -> Obs.Gauge.set_max g_set_hwm (float_of_int (IS.cardinal s)))
        sos_levels;
    {
      errors = List.rev !(st.instr_errors) @ List.rev st.block_errors;
      flagged_accesses = !(st.flagged);
      total_accesses = !(st.total);
      block_stats = stats;
      sos = sos_levels;
    }

  let encode st =
    let module W = Tracing.Binio.W in
    let w = W.create () in
    W.varint w st.threads;
    W.bool w st.isolation;
    W.varint w st.epochs_fed;
    W.varint w st.finalized;
    W.varint w !(st.flagged);
    W.varint w !(st.total);
    W.list w put_error !(st.instr_errors);
    W.list w put_error st.block_errors;
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w put_stats row)
      (Lg_io.sorted_entries st.stats);
    W.list w
      (fun w (epoch, f) ->
        W.varint w epoch;
        W.array w Lg_io.put_is f.sc;
        W.array w Lg_io.put_is f.ac)
      (Lg_io.sorted_entries st.facts);
    W.string w (S.encode_state ~set:set_codec st.sched);
    W.contents w

  let decode ?pool s =
    let module R = Tracing.Binio.R in
    match
      let r = R.of_string s in
      let threads = R.varint r in
      if threads = 0 then raise (R.Corrupt "zero threads");
      let isolation = R.bool r in
      let epochs_fed = R.varint r in
      let finalized = R.varint r in
      let flagged = ref (R.varint r) in
      let total = ref (R.varint r) in
      let instr_errors = ref (R.list r get_error) in
      let block_errors = R.list r get_error in
      let stats = Hashtbl.create 64 in
      R.list r (fun r ->
          let epoch = R.varint r in
          let row = R.array r get_stats in
          if Array.length row <> threads then
            raise (R.Corrupt "stats row width mismatch");
          Hashtbl.replace stats epoch row)
      |> ignore;
      let facts = Hashtbl.create 8 in
      R.list r (fun r ->
          let epoch = R.varint r in
          let sc = R.array r Lg_io.get_is in
          let ac = R.array r Lg_io.get_is in
          if Array.length sc <> threads || Array.length ac <> threads then
            raise (R.Corrupt "facts row width mismatch");
          Hashtbl.replace facts epoch { sc; ac })
      |> ignore;
      let sched_payload = R.string r in
      R.expect_end r;
      make_state ?pool ~isolation ~threads ~instr_errors ~block_errors
        ~flagged ~total ~stats ~facts ~finalized ~epochs_fed
        ~sched_of:(fun ?pool ~on_instr () ->
          S.decode_state ~set:set_codec ?pool ~on_instr
            sched_payload)
        ()
    with
    | st -> Ok st
    | exception R.Corrupt m -> Error ("addrcheck state: " ^ m)
end

let run ?isolation ?pool epochs =
  let st =
    Resumable.create ?pool ?isolation
      ~threads:(Butterfly.Epochs.threads epochs) ()
  in
  Butterfly.Epochs.iter_rows epochs (Resumable.feed_epoch st);
  Resumable.finish st
