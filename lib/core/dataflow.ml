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

  (* Two membership probes answer whether a fact is in IN; the checks
     do that, tests and examples build the set. *)
  let in_before v =
    match P.flavour with
    | `May -> Set.union v.side_in v.lsos_before
    | `Must -> Set.diff v.lsos_before v.side_in

  (* Pass-2 inner loop over one block, run by the pass-2 task of
     [Scheduler.Kernel].  A view holds the running LSOS and the side-in,
     never their meet. *)
  let iter_block ~side_in ~lsos0 ~sos f body =
    let cur = ref lsos0 in
    Block.iteri
      (fun id instr ->
        let lsos_at = !cur in
        f { id; instr; lsos_before = lsos_at; side_in; sos };
        let g = P.gen id instr and k = P.kill id instr in
        cur := Set.union g (Set.diff lsos_at k))
      body
end
