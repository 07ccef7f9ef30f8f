module Loc_map = Map.Make (Int)
module ES = Expr.Set

(* Semantics: the set contains [pos] plus, for every binding [loc -> ex] in
   [wild], every expression mentioning [loc] except those in [ex].
   Canonical form (established by [normalize]):
   - ex(loc) contains exactly the non-member expressions mentioning [loc]
     that are tracked at all (every expr in an except set mentions its key);
   - pos contains only members mentioning no wildcard key. *)
type t = { pos : ES.t; wild : ES.t Loc_map.t }

let empty = { pos = ES.empty; wild = Loc_map.empty }
let is_empty t = ES.is_empty t.pos && Loc_map.is_empty t.wild
let mem_raw e t =
  ES.mem e t.pos
  || List.exists
       (fun loc ->
         match Loc_map.find_opt loc t.wild with
         | None -> false
         | Some ex -> not (ES.mem e ex))
       (Expr.operands e)

let normalize t =
  (* Step 1: drop pos members from except sets. *)
  let ex1 = Loc_map.map (fun ex -> ES.diff ex t.pos) t.wild in
  (* Step 2: drop exclusions redundant because another key covers them. *)
  let covered_elsewhere loc e =
    List.exists
      (fun loc' ->
        loc' <> loc
        &&
        match Loc_map.find_opt loc' ex1 with
        | None -> false
        | Some ex' -> not (ES.mem e ex'))
      (Expr.operands e)
  in
  let ex2 =
    Loc_map.mapi (fun loc ex -> ES.filter (fun e -> not (covered_elsewhere loc e)) ex) ex1
  in
  (* Step 3: pos members mentioning a key are now wildcard-covered. *)
  let pos =
    ES.filter
      (fun e -> not (List.exists (fun l -> Loc_map.mem l ex2) (Expr.operands e)))
      t.pos
  in
  { pos; wild = ex2 }

let singleton e = { pos = ES.singleton e; wild = Loc_map.empty }
let of_list es = { pos = ES.of_list es; wild = Loc_map.empty }
let killing loc = { pos = ES.empty; wild = Loc_map.singleton loc ES.empty }
let mem = mem_raw

let union a b =
  normalize
    {
      pos = ES.union a.pos b.pos;
      wild =
        Loc_map.merge
          (fun _loc exa exb ->
            match (exa, exb) with
            | None, x | x, None -> x
            | Some ea, Some eb -> Some (ES.inter ea eb))
          a.wild b.wild;
    }

let all_excepts t =
  Loc_map.fold (fun _ ex acc -> ES.union ex acc) t.wild ES.empty

let inter a b =
  let candidates =
    ES.union (ES.union a.pos b.pos) (ES.union (all_excepts a) (all_excepts b))
  in
  let cross =
    Loc_map.fold
      (fun la _ acc ->
        Loc_map.fold
          (fun lb _ acc -> if la <> lb then ES.add (Expr.binop la lb) acc else acc)
          b.wild acc)
      a.wild ES.empty
  in
  let pos =
    ES.filter
      (fun e -> mem_raw e a && mem_raw e b)
      (ES.union candidates cross)
  in
  let wild =
    Loc_map.merge
      (fun _loc exa exb ->
        match (exa, exb) with
        | Some ea, Some eb -> Some (ES.union ea eb)
        | None, _ | _, None -> None)
      a.wild b.wild
  in
  normalize { pos; wild }

let diff a b =
  let pos = ES.filter (fun e -> not (mem_raw e b)) a.pos in
  let pos, wild =
    Loc_map.fold
      (fun la exa (pos, wild) ->
        match Loc_map.find_opt la b.wild with
        | Some exb ->
          (* Wildcard minus wildcard on the same key: only b's exceptions
             can survive, and only if nothing else in b covers them. *)
          let survivors =
            ES.filter
              (fun e -> not (mem_raw e b))
              (ES.diff exb exa)
          in
          (ES.union pos survivors, wild)
        | None ->
          (* Key survives; grow the exceptions by everything b covers that
             mentions la: b's explicit members, and for each b-wildcard on
             lb the canonical expression over {la, lb}. *)
          let from_pos = ES.filter (Expr.mentions la) b.pos in
          let from_wild =
            Loc_map.fold
              (fun lb exb acc ->
                if lb = la then acc
                else
                  let e = Expr.binop la lb in
                  if ES.mem e exb then acc else ES.add e acc)
              b.wild ES.empty
          in
          (pos, Loc_map.add la (ES.union exa (ES.union from_pos from_wild)) wild))
      a.wild (pos, Loc_map.empty)
  in
  normalize { pos; wild }

let equal a b = ES.equal a.pos b.pos && Loc_map.equal ES.equal a.wild b.wild
let explicit t = t.pos
let wild_locations t = Loc_map.bindings t.wild |> List.map fst

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  let sep () =
    if not !first then Format.fprintf ppf "; ";
    first := false
  in
  ES.iter
    (fun e ->
      sep ();
      Expr.pp ppf e)
    t.pos;
  Loc_map.iter
    (fun loc ex ->
      sep ();
      if ES.is_empty ex then Format.fprintf ppf "*%a" Tracing.Addr.pp loc
      else
        Format.fprintf ppf "*%a\\{%a}" Tracing.Addr.pp loc
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
             Expr.pp)
          (ES.elements ex))
    t.wild;
  Format.fprintf ppf "}"

let union_all = List.fold_left union empty

module W = Tracing.Binio.W
module R = Tracing.Binio.R

let put_expr w (e : Expr.t) =
  match e with
  | Unop a ->
    W.u8 w 0;
    W.sint w a
  | Binop (a, b) ->
    W.u8 w 1;
    W.sint w a;
    W.sint w b

let get_expr r =
  match R.u8 r with
  | 0 -> Expr.unop (R.sint r)
  | 1 ->
    let a = R.sint r in
    Expr.binop a (R.sint r)
  | k -> raise (R.Corrupt (Printf.sprintf "bad expression tag %d" k))

let put_exprs w s = W.list w put_expr (ES.elements s)
let get_exprs r = ES.of_list (R.list r get_expr)

let put w t =
  put_exprs w t.pos;
  W.list w
    (fun w (loc, ex) ->
      W.sint w loc;
      put_exprs w ex)
    (Loc_map.bindings t.wild)

let get r =
  let pos = get_exprs r in
  let wild =
    R.list r (fun r ->
        let loc = R.sint r in
        (loc, get_exprs r))
    |> List.to_seq |> Loc_map.of_seq
  in
  { pos; wild }
