module IS = Butterfly.Interval_set

type error = { id : Butterfly.Instr_id.t; addrs : IS.t }

type report = {
  errors : error list;
  flagged_reads : int;
  total_reads : int;
  sos : IS.t array;
}

let obs_labels = [ ("lifeguard", "initcheck") ]
let m_checks = Obs.Counter.make ~labels:obs_labels "lifeguard.checks"
let m_flags = Obs.Counter.make ~labels:obs_labels "lifeguard.flags"
let g_set_hwm = Obs.Gauge.make ~labels:obs_labels "lifeguard.sos_size_hwm"

let flagged_addresses r =
  List.fold_left (fun acc e -> IS.union acc e.addrs) IS.empty r.errors

let pp_error ppf e =
  Format.fprintf ppf "possibly-uninitialized read at %a: %a"
    Butterfly.Instr_id.pp e.id IS.pp e.addrs

let fingerprint (r : report) =
  Format.asprintf "flagged=%d/%d errors=[%a] sos=[%a]" r.flagged_reads
    r.total_reads
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " pp_error))
    r.errors
    (fun ppf -> Array.iter (Format.fprintf ppf "%a; " IS.pp))
    r.sos

module Problem = struct
  let name = "initcheck"

  module Set = IS

  let flavour = `Must

  let gen _id i =
    match Tracing.Instr.writes i with
    | Some x -> IS.range x (x + 1)
    | None -> IS.empty

  let kill _id i =
    match Tracing.Instr.alloc_effect i with
    | `Alloc (base, size) | `Free (base, size) -> IS.range base (base + size)
    | `None -> IS.empty
end

module A = Butterfly.Dataflow.Make (Problem)
module S = Butterfly.Scheduler.Make (Problem)

(* The per-instruction check, fed every view the streaming scheduler
   delivers. *)
let make_on_instr ~errors ~flagged ~total (v : A.instr_view) =
  match Tracing.Instr.reads v.instr with
  | [] -> ()
  | rs ->
    incr total;
    Obs.Counter.incr m_checks;
    let bad =
      List.fold_left
        (fun acc a ->
          if IS.mem a v.in_before then acc else IS.union acc (IS.singleton a))
        IS.empty rs
    in
    if not (IS.is_empty bad) then (
      incr flagged;
      Obs.Counter.incr m_flags;
      errors := { id = v.id; addrs = bad } :: !errors)

(* ---------------------------------------------------------------- *)
(* The epoch-incremental engine.  Built directly on the streaming
   scheduler: InitCheck's durable state is the scheduler's
   sliding window plus the accumulated report — nothing else. *)

module Resumable = struct
  (* Fact sets are serialized as canonical interval lists. *)
  let set_codec = { S.put_set = Lg_io.put_is; get_set = Lg_io.get_is }

  type state = {
    sched : S.t;
    threads : int;
    errors : error list ref; (* reversed *)
    flagged : int ref;
    total : int ref;
    mutable epochs_fed : int;
  }

  let create ?pool ~threads () =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    let errors = ref [] and flagged = ref 0 and total = ref 0 in
    let on_instr = make_on_instr ~errors ~flagged ~total in
    {
      sched = S.create ?pool ~threads ~on_instr ();
      threads;
      errors;
      flagged;
      total;
      epochs_fed = 0;
    }

  let threads st = st.threads
  let epochs_fed st = st.epochs_fed

  (* Pass 2 of the previous epoch runs inside [S.feed_row]: its views
     reach the check above before this returns. *)
  let feed_epoch st row =
    S.feed_row st.sched row;
    st.epochs_fed <- st.epochs_fed + 1

  let finish st =
    S.finish st.sched;
    let sos_levels = S.sos_history st.sched in
    if Obs.enabled () then
      Array.iter
        (fun s -> Obs.Gauge.set_max g_set_hwm (float_of_int (IS.cardinal s)))
        sos_levels;
    {
      errors = List.rev !(st.errors);
      flagged_reads = !(st.flagged);
      total_reads = !(st.total);
      sos = sos_levels;
    }

  let encode st =
    let module W = Tracing.Binio.W in
    let w = W.create () in
    W.varint w st.threads;
    W.varint w st.epochs_fed;
    W.varint w !(st.flagged);
    W.varint w !(st.total);
    W.list w
      (fun w e ->
        Lg_io.put_id w e.id;
        Lg_io.put_is w e.addrs)
      !(st.errors);
    W.string w (S.encode_state ~set:set_codec st.sched);
    W.contents w

  let decode ?pool s =
    let module R = Tracing.Binio.R in
    match
      let r = R.of_string s in
      let threads = R.varint r in
      let epochs_fed = R.varint r in
      let flagged = ref (R.varint r) in
      let total = ref (R.varint r) in
      let errors =
        ref
          (R.list r (fun r ->
               let id = Lg_io.get_id r in
               let addrs = Lg_io.get_is r in
               { id; addrs }))
      in
      let sched_payload = R.string r in
      R.expect_end r;
      let on_instr = make_on_instr ~errors ~flagged ~total in
      let sched =
        S.decode_state ~set:set_codec ?pool ~on_instr sched_payload
      in
      if S.threads sched <> threads then
        raise (R.Corrupt "thread count disagrees with the window's");
      { sched; threads; errors; flagged; total; epochs_fed }
    with
    | st -> Ok st
    | exception R.Corrupt m -> Error ("initcheck state: " ^ m)
end

let run ?pool epochs =
  let st =
    Resumable.create ?pool ~threads:(Butterfly.Epochs.threads epochs) ()
  in
  Butterfly.Epochs.iter_rows epochs (Resumable.feed_epoch st);
  Resumable.finish st
