(* The butterfly dataflow engine cross-validated against exhaustively
   enumerated valid orderings.  SOS and IN come from the window the
   lifeguards run on ([RD.run], [RE.run]); GEN_l/KILL_l and block
   summaries, which the window keeps internal, from the whole-grid
   reference of the same equations (Testutil.Whole_grid):

   - Lemma 5.1: d ∈ GEN_l implies some valid ordering of epochs [0..l] ends
     with d live; d ∈ KILL_l implies none does.
   - Lemma 5.2 (SOS invariant): d ∈ SOS_l iff some valid ordering of epochs
     [0..l-2] ends with d live — tested as an exact equivalence.
   - IN soundness (May): every definition live at the body's entry along any
     valid prefix is contained in IN_{l,t}.
   - Duals for reaching expressions (Must): SOS_l only contains expressions
     available under every ordering; IN_{l,t} only contains expressions
     available at block entry along every valid prefix. *)

module RD = Butterfly.Reaching_definitions
module RE = Butterfly.Reaching_expressions
module DS = Butterfly.Def_set
module ES = Butterfly.Expr_set
module Def = Butterfly.Definition
module VO = Memmodel.Valid_ordering
module Grid_rd = Testutil.Whole_grid (RD.Problem)
module Grid_re = Testutil.Whole_grid (RE.Problem)

let cap = 40_000

(* Explicit definitions of a wildcard-free Def_set. *)
let defs_of_set s =
  List.concat_map
    (fun loc ->
      match DS.sites_of_loc loc s with
      | `None -> []
      | `Sites sites ->
        List.map (fun site -> Def.make ~loc ~site) (Def.Site_set.elements sites)
      | `All_except _ -> failwith "unexpected cofinite portion")
    (DS.locations s)

(* All valid orderings of the first [n] epochs of a grid, or None if the
   enumeration hits the cap. *)
let orderings ?model g n =
  let g' = Testutil.grid_prefix g n in
  let vo = Testutil.vo_of_grid ?model g' in
  let os, exhaustive = VO.enumerate ~cap vo in
  if exhaustive then Some (g', os) else None

let num_epochs (g : Testutil.grid) =
  Array.fold_left (fun m bs -> max m (List.length bs)) 0 g

let arb2 = Testutil.arb_grid ~n_addrs:3 ~max_threads:2 ~max_epochs:3 ~max_block:2 ()
let arb3 = Testutil.arb_grid ~n_addrs:3 ~max_threads:3 ~max_epochs:3 ~max_block:1 ()

(* ---------- Reaching definitions ---------- *)

(* The window's pass-2 view of the first instruction of every non-empty
   block, keyed by (epoch, tid): its IN is the block's IN. *)
let rd_entries g =
  let entries = Hashtbl.create 16 in
  ignore
    (RD.run
       ~on_instr:(fun (v : RD.Analysis.instr_view) ->
         if v.id.index = 0 then Hashtbl.replace entries (v.id.epoch, v.id.tid) v)
       (Testutil.epochs_of_grid g));
  entries

let rd_sos g = RD.run (Testutil.epochs_of_grid g)
let rd_grid g = Grid_rd.run (Testutil.epochs_of_grid g)

let lemma51_gen g =
  let r = rd_grid g in
  let ok = ref true in
  Array.iteri
    (fun l (s : Grid_rd.D.epoch_summary) ->
      match orderings g (l + 1) with
      | None -> ()
      | Some (g', os) ->
        List.iter
          (fun d ->
            let witnessed =
              List.exists
                (fun o -> List.exists (Def.equal d) (Testutil.live_defs g' o))
                os
            in
            if not witnessed then ok := false)
          (defs_of_set s.gen_l))
    r.epoch_summaries;
  !ok

let lemma51_kill ?model g =
  let r = rd_grid g in
  let ok = ref true in
  Array.iteri
    (fun l (s : Grid_rd.D.epoch_summary) ->
      match orderings ?model g (l + 1) with
      | None -> ()
      | Some (g', os) ->
        List.iter
          (fun o ->
            List.iter
              (fun d -> if DS.mem d s.kill_l then ok := false)
              (Testutil.live_defs g' o))
          os)
    r.epoch_summaries;
  !ok

let lemma52_sos g =
  let sos = rd_sos g in
  let l_max = num_epochs g + 1 in
  let ok = ref true in
  for l = 2 to l_max do
    match orderings g (l - 1) with
    | None -> ()
    | Some (g', os) ->
      let reachable =
        List.fold_left
          (fun acc o ->
            List.fold_left (fun acc d -> d :: acc) acc (Testutil.live_defs g' o))
          [] os
        |> List.sort_uniq Def.compare
      in
      let sos_l = sos.(l) in
      (* Exact equivalence: SOS_l = union over orderings of live defs. *)
      List.iter (fun d -> if not (DS.mem d sos_l) then ok := false) reachable;
      List.iter
        (fun d ->
          if not (List.exists (Def.equal d) reachable) then ok := false)
        (defs_of_set sos_l)
  done;
  !ok

(* Flat index of the first instruction of block (l,t) in thread t. *)
let block_start (g : Testutil.grid) l t =
  let rec go acc k = function
    | [] -> None
    | b :: rest ->
      if k = l then if Array.length b = 0 then None else Some acc
      else go (acc + Array.length b) (k + 1) rest
  in
  go 0 0 g.(t)

let prefix_before_step (o : Memmodel.Ordering.t) tid index =
  let rec go acc = function
    | [] -> None
    | (s : Memmodel.Ordering.step) :: rest ->
      if s.tid = tid && s.index = index then Some (List.rev acc)
      else go (s :: acc) rest
  in
  go [] o

let rd_in_sound g =
  let entries = rd_entries g in
  let epochs = Testutil.epochs_of_grid g in
  let ok = ref true in
  for l = 0 to Butterfly.Epochs.num_epochs epochs - 1 do
    for t = 0 to Butterfly.Epochs.threads epochs - 1 do
      match block_start g l t with
      | None -> ()
      | Some start -> (
        match orderings g (min (num_epochs g) (l + 2)) with
        | None -> ()
        | Some (g', os) ->
          let v = Hashtbl.find entries (l, t) in
          let in_set = RD.Analysis.in_before v in
          List.iter
            (fun o ->
              match prefix_before_step o t start with
              | None -> ()
              | Some prefix ->
                List.iter
                  (fun (d : Def.t) ->
                    if not (DS.mem d in_set && RD.may_reach_loc v d.loc) then
                      ok := false)
                  (Testutil.live_defs g' prefix))
            os)
    done
  done;
  !ok

(* ---------- Reaching expressions ---------- *)

(* As [rd_entries]. *)
let re_entries g =
  let entries = Hashtbl.create 16 in
  ignore
    (RE.run
       ~on_instr:(fun (v : RE.Analysis.instr_view) ->
         if v.id.index = 0 then Hashtbl.replace entries (v.id.epoch, v.id.tid) v)
       (Testutil.epochs_of_grid g));
  entries

let re_sos g = RE.run (Testutil.epochs_of_grid g)

let re_sos_sound ?model g =
  (* e ∈ SOS_l ⟹ available at the end of every ordering of epochs 0..l-2. *)
  let sos = re_sos g in
  let l_max = num_epochs g + 1 in
  let ok = ref true in
  for l = 2 to l_max do
    match orderings ?model g (l - 1) with
    | None -> ()
    | Some (g', os) ->
      Butterfly.Expr.Set.iter
        (fun e ->
          List.iter
            (fun o ->
              if not (Butterfly.Expr.Set.mem e (Testutil.avail_exprs g' o)) then
                ok := false)
            os)
        (ES.explicit sos.(l))
  done;
  !ok

let re_sos_exact g =
  (* Converse: available under every ordering ⟹ in SOS. *)
  let sos = re_sos g in
  let l_max = num_epochs g + 1 in
  let ok = ref true in
  for l = 2 to l_max do
    match orderings g (l - 1) with
    | None -> ()
    | Some (g', os) ->
      if os <> [] then (
        let inter_avail =
          List.fold_left
            (fun acc o ->
              Butterfly.Expr.Set.inter acc (Testutil.avail_exprs g' o))
            (Testutil.avail_exprs g' (List.hd os))
            (List.tl os)
        in
        Butterfly.Expr.Set.iter
          (fun e -> if not (ES.mem e sos.(l)) then ok := false)
          inter_avail)
  done;
  !ok

let re_in_sound g =
  let entries = re_entries g in
  let epochs = Testutil.epochs_of_grid g in
  let ok = ref true in
  for l = 0 to Butterfly.Epochs.num_epochs epochs - 1 do
    for t = 0 to Butterfly.Epochs.threads epochs - 1 do
      match block_start g l t with
      | None -> ()
      | Some start -> (
        match orderings g (min (num_epochs g) (l + 2)) with
        | None -> ()
        | Some (g', os) ->
          let v = Hashtbl.find entries (l, t) in
          let in_set = RE.Analysis.in_before v in
          List.iter
            (fun o ->
              match prefix_before_step o t start with
              | None -> ()
              | Some prefix ->
                let avail = Testutil.avail_exprs g' prefix in
                Butterfly.Expr.Set.iter
                  (fun e ->
                    if RE.available v e && not (Butterfly.Expr.Set.mem e avail)
                    then ok := false)
                  (ES.explicit in_set))
            os)
    done
  done;
  !ok

(* ---------- Hand-built scenarios ---------- *)

module I = Tracing.Instr

let single_thread_is_sequential () =
  (* With one thread there is exactly one valid ordering; the SOS must equal
     the sequential live-def set of the epoch prefix. *)
  let g : Testutil.grid =
    [|
      [
        [| I.Assign_const 0; I.Assign_const 1 |];
        [| I.Assign_const 0 |];
        [| I.Assign_const 2; I.Assign_const 1 |];
        [| I.Nop |];
      ];
    |]
  in
  let sos = rd_sos g in
  for l = 2 to 5 do
    match orderings g (l - 1) with
    | None -> Alcotest.fail "enumeration capped unexpectedly"
    | Some (g', os) ->
      Alcotest.(check int) "unique ordering" 1 (List.length os);
      let live = Testutil.live_defs g' (List.hd os) in
      let sos_defs = defs_of_set sos.(l) in
      Alcotest.(check int)
        (Printf.sprintf "SOS_%d size" l)
        (List.length live) (List.length sos_defs);
      List.iter
        (fun d -> Testutil.checkb "live in SOS" true (DS.mem d sos.(l)))
        live
  done

let figure8_kill_side_in () =
  (* Reaching expressions, Figure 8: block (l,2) kills a-b by writing b; a
     wing block in another thread also kills it.  KILL-SIDE-IN for (l,2)
     must contain the expression. *)
  let a = 0 and b = 1 and t1 = 10 and t2 = 11 in
  let g : Testutil.grid =
    [|
      (* thread 0: kills a-b in epoch 1 by writing a *)
      [ [| I.Nop |]; [| I.Assign_const a |]; [| I.Nop |] ];
      (* thread 1: computes a-b in epoch 0, then irrelevant *)
      [ [| I.Assign_binop (t1, a, b) |]; [| I.Nop |]; [| I.Nop |] ];
      (* thread 2: kills a-b in epoch 1 by writing b *)
      [ [| I.Nop |]; [| I.Assign_binop (t2, t2, t2) ; I.Assign_const b |]; [| I.Nop |] ];
    |]
  in
  let epochs = Testutil.epochs_of_grid g in
  let r = Grid_re.run epochs in
  let wings =
    Butterfly.Epochs.wings epochs ~epoch:1 ~tid:2
    |> List.map (fun (blk : Butterfly.Block.t) -> r.rows.(blk.epoch).(blk.tid))
  in
  let ksi = Grid_re.D.side_in ~wings in
  Testutil.checkb "wings kill a-b" true (ES.mem (Butterfly.Expr.binop a b) ksi);
  (* And the window's IN for block (1,2) must not contain a-b. *)
  let entries = re_entries g in
  Testutil.checkb "a-b not in IN" false
    (RE.available (Hashtbl.find entries (1, 2)) (Butterfly.Expr.binop a b))

let resurrection_clause () =
  (* LSOS (May): the head kills d, but another thread re-generates the same
     location in epoch l-2, which may interleave after the head; the
     location must still be possibly-defined in the LSOS. *)
  let x = 0 in
  let g : Testutil.grid =
    [|
      (* thread 0: defines x in epoch 0; head (epoch 1) redefines x *)
      [ [| I.Assign_const x |]; [| I.Assign_const x |]; [| I.Nop |] ];
      (* thread 1: also defines x in epoch 0 *)
      [ [| I.Assign_const x |]; [| I.Nop |]; [| I.Nop |] ];
    |]
  in
  let r = rd_grid g in
  (* Body block (2,0): its head (1,0) kills all other defs of x, but thread
     1's epoch-0 definition can interleave after the head. *)
  let lsos =
    Grid_rd.D.lsos ~sos:r.sos.(2) ~head:r.rows.(1).(0) ~two_back_row:r.rows.(0)
      ~tid:0
  in
  let d_other =
    Def.make ~loc:x ~site:(Butterfly.Instr_id.make ~epoch:0 ~tid:1 ~index:0)
  in
  Testutil.checkb "other thread's def survives the head kill" true
    (DS.mem d_other lsos)

(* Section 4.4: the analyses remain sound when each thread's instructions
   may reorder subject only to data dependences and per-location coherence
   — the universal ("all orderings") claims are checked against the larger
   relaxed ordering set. *)
let rd_sos_sound_relaxed g =
  let sos = rd_sos g in
  let l_max = num_epochs g + 1 in
  let ok = ref true in
  for l = 2 to l_max do
    match orderings ~model:Memmodel.Consistency.Relaxed g (l - 1) with
    | None -> ()
    | Some (g', os) ->
      (* Every definition live under some relaxed ordering is in the SOS. *)
      List.iter
        (fun o ->
          List.iter
            (fun d -> if not (DS.mem d sos.(l)) then ok := false)
            (Testutil.live_defs g' o))
        os
  done;
  !ok

let prop_tests =
  [
    Testutil.qtest ~count:60 "lemma 5.1 GEN_l witnessed (2 threads)" arb2 lemma51_gen;
    Testutil.qtest ~count:40 "lemma 5.1 GEN_l witnessed (3 threads)" arb3 lemma51_gen;
    Testutil.qtest ~count:60 "lemma 5.1 KILL_l universal (2 threads)" arb2 lemma51_kill;
    Testutil.qtest ~count:40 "lemma 5.1 KILL_l universal (3 threads)" arb3 lemma51_kill;
    Testutil.qtest ~count:60 "lemma 5.2 SOS exact (2 threads)" arb2 lemma52_sos;
    Testutil.qtest ~count:40 "lemma 5.2 SOS exact (3 threads)" arb3 lemma52_sos;
    Testutil.qtest ~count:40 "IN sound for reaching definitions" arb2 rd_in_sound;
    Testutil.qtest ~count:60 "SOS sound for reaching expressions" arb2 re_sos_sound;
    Testutil.qtest ~count:60 "SOS exact for reaching expressions" arb2 re_sos_exact;
    Testutil.qtest ~count:40 "IN sound for reaching expressions" arb2 re_in_sound;
    Testutil.qtest ~count:50 "KILL_l holds under relaxed intra-thread order"
      arb2 (fun g -> lemma51_kill ~model:Memmodel.Consistency.Relaxed g);
    Testutil.qtest ~count:50 "KILL_l holds under TSO"
      arb2 (fun g -> lemma51_kill ~model:Memmodel.Consistency.Tso g);
    Testutil.qtest ~count:50 "RD SOS sound under relaxed orderings" arb2
      rd_sos_sound_relaxed;
    Testutil.qtest ~count:50 "RE SOS sound under relaxed orderings" arb2
      (fun g -> re_sos_sound ~model:Memmodel.Consistency.Relaxed g);
  ]

let unit_tests =
  [
    Alcotest.test_case "single thread reduces to sequential" `Quick
      single_thread_is_sequential;
    Alcotest.test_case "figure 8: KILL-SIDE-IN" `Quick figure8_kill_side_in;
    Alcotest.test_case "LSOS resurrection clause" `Quick resurrection_clause;
  ]

let () =
  Alcotest.run "dataflow"
    [ ("scenarios", unit_tests); ("properties", prop_tests) ]
