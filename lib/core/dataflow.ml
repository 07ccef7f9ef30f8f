module type SET = sig
  type t

  val empty : t
  val is_empty : t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  val union_all : t list -> t
  (* n-ary union; may beat a fold of {!union} (the interval tree
     unions every operand into its tallest one). *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val put : Tracing.Binio.W.t -> t -> unit
  val get : Tracing.Binio.R.t -> t
end

module type PROBLEM = sig
  val name : string

  module Set : SET

  val flavour : [ `May | `Must ]
  val gen : Instr_id.t -> Tracing.Instr.t -> Set.t
  val kill : Instr_id.t -> Tracing.Instr.t -> Set.t
end

module Make (P : PROBLEM) = struct
  module Set = P.Set

  (* Telemetry: one instrument per metric, shared by every batch run of
     this problem.  The window's dataflow kernel ([Scheduler.Kernel],
     which the lifeguards run on) emits the same names with
     [driver=streaming]. *)
  let obs_labels = [ ("problem", P.name); ("driver", "batch") ]
  let m_epochs = Obs.Counter.make ~labels:obs_labels "butterfly.epochs_processed"
  let m_instrs = Obs.Counter.make ~labels:obs_labels "butterfly.pass2_instrs"
  let sp_pass1 = Obs.Span.make ~labels:obs_labels "butterfly.pass1_summarize.ns"
  let sp_meet = Obs.Span.make ~labels:obs_labels "butterfly.side_in_meet.ns"
  let sp_lsos = Obs.Span.make ~labels:obs_labels "butterfly.lsos.ns"
  let sp_pass2 = Obs.Span.make ~labels:obs_labels "butterfly.pass2_block.ns"

  type block_summary = {
    block : Block.t;
    gen : Set.t;
    kill : Set.t;
    gen_union : Set.t;
    kill_union : Set.t;
  }

  (* An instruction with empty GEN and KILL leaves the summary as it is:
     most of a trace is such instructions. *)
  let summarize block =
    Block.fold_left
      (fun s id instr ->
        let g = P.gen id instr and k = P.kill id instr in
        if Set.is_empty g && Set.is_empty k then s
        else
          {
            s with
            gen = Set.union (Set.diff s.gen k) g;
            kill = Set.union (Set.diff s.kill g) k;
            gen_union = Set.union s.gen_union g;
            kill_union = Set.union s.kill_union k;
          })
      {
        block;
        gen = Set.empty;
        kill = Set.empty;
        gen_union = Set.empty;
        kill_union = Set.empty;
      }
      block

  let side_out s =
    match P.flavour with `May -> s.gen_union | `Must -> s.kill_union

  let side_in ~wings = Set.union_all (List.map side_out wings)

  type epoch_summary = { gen_l : Set.t; kill_l : Set.t }

  (* KILL_l (May): a fact is killed across epoch l iff some block (l,t)
     net-kills it and every other thread, over epochs l-1 and l combined,
     either kills it too or never generates it.  GEN_l (Must) is the exact
     dual.  Both reduce to pure set algebra:
       X ∩ (K' ∪ ¬G')  =  (X ∩ K') ∪ (X − G'). *)
  let consensus ~locals ~span_other ~not_other =
    let n = Array.length locals in
    let acc = ref Set.empty in
    for t = 0 to n - 1 do
      let x = ref locals.(t) in
      for t' = 0 to n - 1 do
        if t' <> t then
          x :=
            Set.union
              (Set.inter !x span_other.(t'))
              (Set.diff !x not_other.(t'))
      done;
      acc := Set.union !acc !x
    done;
    !acc

  let epoch_summary ~prev ~cur =
    let n = Array.length cur in
    let prev_gen t = match prev with None -> Set.empty | Some p -> p.(t).gen in
    let prev_kill t =
      match prev with None -> Set.empty | Some p -> p.(t).kill
    in
    match P.flavour with
    | `May ->
      let gen_l =
        Array.fold_left (fun acc s -> Set.union acc s.gen) Set.empty cur
      in
      (* KILL_{(l-1,l),t} = (KILL_{l-1,t} − GEN_{l,t}) ∪ KILL_{l,t} *)
      let span =
        Array.init n (fun t ->
            Set.union (Set.diff (prev_kill t) cur.(t).gen) cur.(t).kill)
      in
      (* ¬NOT-GEN_{(l-1,l),t} = GEN_{l-1,t} ∪ GEN_{l,t} *)
      let gen2 = Array.init n (fun t -> Set.union (prev_gen t) cur.(t).gen) in
      let locals = Array.map (fun s -> s.kill) cur in
      { gen_l; kill_l = consensus ~locals ~span_other:span ~not_other:gen2 }
    | `Must ->
      let kill_l =
        Array.fold_left (fun acc s -> Set.union acc s.kill) Set.empty cur
      in
      (* GEN_{(l-1,l),t} = (GEN_{l-1,t} − KILL_{l,t}) ∪ GEN_{l,t} *)
      let span =
        Array.init n (fun t ->
            Set.union (Set.diff (prev_gen t) cur.(t).kill) cur.(t).gen)
      in
      let kill2 =
        Array.init n (fun t -> Set.union (prev_kill t) cur.(t).kill)
      in
      let locals = Array.map (fun s -> s.gen) cur in
      { gen_l = consensus ~locals ~span_other:span ~not_other:kill2; kill_l }

  let sos_next ~sos_prev ~two_back =
    Set.union two_back.gen_l (Set.diff sos_prev two_back.kill_l)

  let lsos ~sos ~head ~two_back_row ~tid =
    let others f =
      Array.to_list two_back_row
      |> List.filteri (fun t _ -> t <> tid)
      |> List.fold_left (fun acc s -> Set.union acc (f s)) Set.empty
    in
    match P.flavour with
    | `May ->
      (* GEN_{l-1,t} ∪ (SOS_l − KILL_{l-1,t})
         ∪ {d ∈ SOS_l ∩ KILL_{l-1,t} | some other thread generates d in
            epoch l-2 — that generation may interleave after the head}. *)
      let resurrect =
        Set.inter (Set.inter sos head.kill) (others (fun s -> s.gen_union))
      in
      Set.union head.gen (Set.union (Set.diff sos head.kill) resurrect)
    | `Must ->
      (* (GEN_{l-1,t} − kills anywhere in epoch l-2 by other threads)
         ∪ (SOS_l − KILL_{l-1,t}). *)
      Set.union
        (Set.diff head.gen (others (fun s -> s.kill_union)))
        (Set.diff sos head.kill)

  type instr_view = {
    id : Instr_id.t;
    instr : Tracing.Instr.t;
    lsos_before : Set.t;
    side_in : Set.t;
    sos : Set.t;
  }

  type result = {
    epochs : Epochs.t;
    sos : Set.t array;
    block_summaries : block_summary array array;
    epoch_summaries : epoch_summary array;
  }

  let compute_in ~side_in ~lsos_at =
    match P.flavour with
    | `May -> Set.union side_in lsos_at
    | `Must -> Set.diff lsos_at side_in

  let in_before v = compute_in ~side_in:v.side_in ~lsos_at:v.lsos_before

  (* Pass-2 inner loop over one block, shared by both drivers (batch here,
     the pass-2 task of [Scheduler.Kernel] on the window).  A view holds
     the running LSOS and the side-in, never their meet: a check asks
     whether a fact is in IN, which two membership probes answer. *)
  let iter_block ~side_in ~lsos0 ~sos f body =
    let cur = ref lsos0 in
    Block.iteri
      (fun id instr ->
        let lsos_at = !cur in
        f { id; instr; lsos_before = lsos_at; side_in; sos };
        let g = P.gen id instr and k = P.kill id instr in
        cur := Set.union g (Set.diff lsos_at k))
      body

  let run ?on_instr epochs =
    let num_l = Epochs.num_epochs epochs in
    let threads = Epochs.threads epochs in
    (* Pass 1: block summaries, in arrival order. *)
    let block_summaries =
      Array.init num_l (fun l ->
          Obs.Scope.with_scope ~epoch:l ~phase:"pass1" (fun () ->
              Obs.Span.time sp_pass1 (fun () ->
                  Array.init threads (fun tid ->
                      summarize (Epochs.block epochs ~epoch:l ~tid)))))
    in
    Obs.Counter.add m_epochs num_l;
    let epoch_summaries =
      Array.init num_l (fun l ->
          epoch_summary
            ~prev:(if l = 0 then None else Some block_summaries.(l - 1))
            ~cur:block_summaries.(l))
    in
    (* SOS_0 = SOS_1 = ∅; SOS_l = GEN_{l-2} ∪ (SOS_{l-1} − KILL_{l-2}). *)
    let sos = Array.make (num_l + 2) Set.empty in
    for l = 2 to num_l + 1 do
      sos.(l) <-
        sos_next ~sos_prev:sos.(l - 1) ~two_back:epoch_summaries.(l - 2)
    done;
    let empty_row epoch =
      Array.init threads (fun t -> summarize (Block.empty ~epoch ~tid:t))
    in
    let row l = if l < 0 || l >= num_l then empty_row l else block_summaries.(l) in
    (* Pass 2 with checks. *)
    (match on_instr with
    | None -> ()
    | Some f ->
      for l = 0 to num_l - 1 do
        for tid = 0 to threads - 1 do
          Obs.Scope.with_scope ~epoch:l ~tid ~phase:"pass2" (fun () ->
              let body = Epochs.block epochs ~epoch:l ~tid in
              let wings =
                Epochs.wings epochs ~epoch:l ~tid
                |> List.map (fun (b : Block.t) -> (row b.epoch).(b.tid))
              in
              let side_in = Obs.Span.time sp_meet (fun () -> side_in ~wings) in
              let head = (row (l - 1)).(tid) in
              let lsos0 =
                Obs.Span.time sp_lsos (fun () ->
                    lsos ~sos:sos.(l) ~head ~two_back_row:(row (l - 2)) ~tid)
              in
              Obs.Counter.add m_instrs (Block.length body);
              Obs.Span.time sp_pass2 (fun () ->
                  iter_block ~side_in ~lsos0 ~sos:sos.(l) f body))
        done
      done);
    { epochs; sos; block_summaries; epoch_summaries }

  let row_of r l =
    let num_l = Epochs.num_epochs r.epochs in
    let threads = Epochs.threads r.epochs in
    if l < 0 || l >= num_l then
      Array.init threads (fun tid -> summarize (Block.empty ~epoch:l ~tid))
    else r.block_summaries.(l)

  let block_in r ~epoch ~tid =
    let wings =
      Epochs.wings r.epochs ~epoch ~tid
      |> List.map (fun (b : Block.t) -> (row_of r b.epoch).(b.tid))
    in
    let side_in = side_in ~wings in
    let head = (row_of r (epoch - 1)).(tid) in
    let lsos0 =
      lsos ~sos:r.sos.(epoch) ~head ~two_back_row:(row_of r (epoch - 2)) ~tid
    in
    compute_in ~side_in ~lsos_at:lsos0

  let block_out r ~epoch ~tid =
    let s = r.block_summaries.(epoch).(tid) in
    Set.union s.gen (Set.diff (block_in r ~epoch ~tid) s.kill)
end
