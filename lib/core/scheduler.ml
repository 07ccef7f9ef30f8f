module Kernel (P : Dataflow.PROBLEM) = struct
  module D = Dataflow.Make (P)

  let name = P.name

  (* The window emits the rest of the pipeline's telemetry. *)
  let obs_labels = [ ("problem", P.name); ("driver", "streaming") ]
  let sp_meet = Obs.Span.make ~labels:obs_labels "butterfly.side_in_meet.ns"
  let sp_lsos = Obs.Span.make ~labels:obs_labels "butterfly.lsos.ns"
  let sp_pass2 = Obs.Span.make ~labels:obs_labels "butterfly.pass2_block.ns"

  type env = D.instr_view -> unit
  type params = unit
  type summary = D.block_summary

  type state = {
    threads : int;
    on_instr : env;
    sos : (int, D.Set.t) Hashtbl.t; (* SOS_0 .. SOS_(max 1 processed) *)
  }

  type sealed = {
    sos_l : D.Set.t;
    rows : D.block_summary array array; (* rows l-2 .. l+1 *)
    emit : env option; (* inline: views go straight to [on_instr] *)
  }

  type outcome = D.instr_view list
  type report = D.Set.t array

  let rows_behind = 2

  let create ~threads on_instr () =
    let sos = Hashtbl.create 16 in
    Hashtbl.replace sos 0 D.Set.empty;
    Hashtbl.replace sos 1 D.Set.empty;
    { threads; on_instr; sos }

  let summarize _ block = D.summarize block

  (* Rows outside the execution read as empty, as the grid does. *)
  let row_at st ~row e =
    match row e with
    | Some r -> r
    | None -> Array.init st.threads (fun tid -> D.summarize (Block.empty ~epoch:e ~tid))

  (* SOS_(l+1) = GEN_(l-1) ∪ (SOS_l − KILL_(l-1)), for l >= 1: reads
     summary rows l-2 and l-1. *)
  let sos_after st ~row l =
    D.sos_next ~sos_prev:(Hashtbl.find st.sos l)
      ~two_back:
        (D.epoch_summary
           ~prev:(if l = 1 then None else Some (row_at st ~row (l - 2)))
           ~cur:(row_at st ~row (l - 1)))

  let step st ~inline ~row l =
    if l >= 1 then Hashtbl.replace st.sos (l + 1) (sos_after st ~row l);
    {
      sos_l = Hashtbl.find st.sos l;
      rows = Array.init 4 (fun i -> row_at st ~row (l - 2 + i));
      emit = (if inline then Some st.on_instr else None);
    }

  (* One thread's share of pass 2 over epoch [l]: it reads only the
     sealed rows and hands the body's views to [emit] in instruction
     order. *)
  let pass2_thread s ~tid ~emit body =
    let wings = ref [] in
    for i = 3 downto 1 do
      (* epochs l+1 downto l-1 *)
      for t' = Array.length s.rows.(i) - 1 downto 0 do
        if t' <> tid then wings := s.rows.(i).(t') :: !wings
      done
    done;
    let side_in = Obs.Span.time sp_meet (fun () -> D.side_in ~wings:!wings) in
    let lsos0 =
      Obs.Span.time sp_lsos (fun () ->
          D.lsos ~sos:s.sos_l ~head:s.rows.(1).(tid) ~two_back_row:s.rows.(0) ~tid)
    in
    Obs.Span.time sp_pass2 (fun () ->
        D.iter_block ~side_in ~lsos0 ~sos:s.sos_l emit body)

  (* A pool task buffers its block's views for the master's commit.
     Inline, each block is committed right after it runs, so it hands
     its views straight to [on_instr]: buffered, views holding freshly
     built fact sets outlive minor collections and get promoted, which
     doubled the sequential run time of reaching definitions. *)
  let eval_block s ~epoch:_ ~tid body =
    match s.emit with
    | Some emit ->
      pass2_thread s ~tid ~emit body;
      []
    | None ->
      let views = ref [] in
      pass2_thread s ~tid ~emit:(fun v -> views := v :: !views) body;
      List.rev !views

  let commit st ~epoch:_ ~tid:_ views = List.iter st.on_instr views

  let report st ~row ~epochs =
    Array.init (epochs + 2) (fun l ->
        if l = epochs + 1 then sos_after st ~row epochs
        else Hashtbl.find st.sos l)

  let put_params _ () = ()
  let get_params _ = ()

  let put_body w st =
    Tracing.Binio.W.list w D.Set.put
      (List.init (Hashtbl.length st.sos) (Hashtbl.find st.sos))

  let get_body r ~threads ~processed on_instr () =
    let levels = Tracing.Binio.R.list r D.Set.get in
    if List.length levels <> max 2 (processed + 1) then
      raise (Tracing.Binio.R.Corrupt "SOS history disagrees with the cursors");
    let st = create ~threads on_instr () in
    List.iteri (Hashtbl.replace st.sos) levels;
    st
end

module Make (P : Dataflow.PROBLEM) = Window.Make (Kernel (P))
