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

  let kill _id : Tracing.Instr.t -> IS.t = function
    | Malloc { base; size } | Free { base; size } -> IS.range base (base + size)
    | _ -> IS.empty
end

module DK = Butterfly.Scheduler.Kernel (Problem)

type acc = {
  mutable errors : error list; (* reversed *)
  mutable flagged : int;
  mutable total : int;
}

(* The per-instruction check, fed every view the window delivers.  For a
   [`Must] problem IN = LSOS − side-in, so [a ∈ IN] iff [a ∈ LSOS] and
   [a ∉ side-in]: two probes, and the IN set is never built. *)
let check acc (v : DK.D.instr_view) =
  match Tracing.Instr.reads v.instr with
  | [] -> ()
  | rs ->
    acc.total <- acc.total + 1;
    Obs.Counter.incr m_checks;
    let bad =
      List.fold_left
        (fun acc a ->
          if IS.mem a v.lsos_before && not (IS.mem a v.side_in) then acc
          else IS.union acc (IS.singleton a))
        IS.empty rs
    in
    if not (IS.is_empty bad) then (
      acc.flagged <- acc.flagged + 1;
      Obs.Counter.incr m_flags;
      acc.errors <- { id = v.id; addrs = bad } :: acc.errors)

(* ---------------------------------------------------------------- *)
(* The window kernel: the dataflow kernel, whose view sink is the check
   above, plus the accumulated report — nothing else. *)

module Kernel = struct
  module W = Tracing.Binio.W
  module R = Tracing.Binio.R

  let name = Problem.name

  type env = unit
  type params = unit
  type summary = DK.summary
  type state = { df : DK.state; acc : acc }
  type sealed = DK.sealed
  type outcome = DK.outcome
  type nonrec report = report

  let rows_behind = DK.rows_behind

  let create ~threads () () =
    Obs.Counter.add m_checks 0;
    Obs.Counter.add m_flags 0;
    let acc = { errors = []; flagged = 0; total = 0 } in
    { df = DK.create ~threads (check acc) (); acc }

  let summarize st = DK.summarize st.df
  let step st = DK.step st.df
  let eval_block = DK.eval_block
  let commit st = DK.commit st.df

  let report st ~row ~epochs =
    let sos_levels = DK.report st.df ~row ~epochs in
    if Obs.enabled () then
      Array.iter
        (fun s -> Obs.Gauge.set_max g_set_hwm (float_of_int (IS.cardinal s)))
        sos_levels;
    {
      errors = List.rev st.acc.errors;
      flagged_reads = st.acc.flagged;
      total_reads = st.acc.total;
      sos = sos_levels;
    }

  let put_params _ () = ()
  let get_params _ = ()

  let put_body w st =
    W.varint w st.acc.flagged;
    W.varint w st.acc.total;
    W.list w
      (fun w e ->
        Butterfly.Instr_id.put w e.id;
        IS.put w e.addrs)
      st.acc.errors;
    DK.put_body w st.df

  let get_body r ~threads ~processed () () =
    let flagged = R.varint r in
    let total = R.varint r in
    let errors =
      R.list r (fun r ->
          let id = Butterfly.Instr_id.get r in
          let addrs = IS.get r in
          { id; addrs })
    in
    let acc = { errors; flagged; total } in
    { df = DK.get_body r ~threads ~processed (check acc) (); acc }
end

module Engine = Butterfly.Window.Make (Kernel)

let run ?pool epochs = Engine.run ?pool () () epochs
