module Loc_map = Map.Make (Int)
module S = Definition.Site_set

(* Per-location portion: finite or cofinite set of definition sites. *)
type portion = Pos of S.t | All_except of S.t

type t = portion Loc_map.t

let empty = Loc_map.empty

let norm_portion = function
  | Pos s when S.is_empty s -> None
  | p -> Some p

let is_empty t = Loc_map.is_empty t

let singleton (d : Definition.t) =
  Loc_map.singleton d.loc (Pos (S.singleton d.site))

let of_list ds =
  List.fold_left
    (fun m (d : Definition.t) ->
      Loc_map.update d.loc
        (function
          | None -> Some (Pos (S.singleton d.site))
          | Some (Pos s) -> Some (Pos (S.add d.site s))
          | Some (All_except e) -> Some (All_except (S.remove d.site e)))
        m)
    empty ds

let all_of_loc loc = Loc_map.singleton loc (All_except S.empty)

let all_of_loc_except loc site =
  Loc_map.singleton loc (All_except (S.singleton site))

let mem (d : Definition.t) t =
  match Loc_map.find_opt d.loc t with
  | None -> false
  | Some (Pos s) -> S.mem d.site s
  | Some (All_except e) -> not (S.mem d.site e)

let defines_loc loc t = Loc_map.mem loc t

let merge_portions f a b =
  Loc_map.merge
    (fun _loc pa pb ->
      let pa = Option.value pa ~default:(Pos S.empty) in
      let pb = Option.value pb ~default:(Pos S.empty) in
      norm_portion (f pa pb))
    a b

let union =
  merge_portions (fun pa pb ->
      match (pa, pb) with
      | Pos a, Pos b -> Pos (S.union a b)
      | Pos a, All_except e | All_except e, Pos a -> All_except (S.diff e a)
      | All_except e1, All_except e2 -> All_except (S.inter e1 e2))

let inter =
  merge_portions (fun pa pb ->
      match (pa, pb) with
      | Pos a, Pos b -> Pos (S.inter a b)
      | Pos a, All_except e | All_except e, Pos a -> Pos (S.diff a e)
      | All_except e1, All_except e2 -> All_except (S.union e1 e2))

let diff =
  merge_portions (fun pa pb ->
      match (pa, pb) with
      | Pos a, Pos b -> Pos (S.diff a b)
      | Pos a, All_except e -> Pos (S.inter a e)
      | All_except e, Pos b -> All_except (S.union e b)
      | All_except e1, All_except e2 -> Pos (S.diff e2 e1))

let equal a b =
  Loc_map.equal
    (fun pa pb ->
      match (pa, pb) with
      | Pos s1, Pos s2 -> S.equal s1 s2
      | All_except e1, All_except e2 -> S.equal e1 e2
      | Pos _, All_except _ | All_except _, Pos _ -> false)
    a b

let sites_of_loc loc t =
  match Loc_map.find_opt loc t with
  | None -> `None
  | Some (Pos s) -> `Sites s
  | Some (All_except e) -> `All_except e

let locations t = Loc_map.bindings t |> List.map fst

let pp_portion ppf = function
  | Pos s ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Instr_id.pp)
      (S.elements s)
  | All_except e when S.is_empty e -> Format.fprintf ppf "*"
  | All_except e ->
    Format.fprintf ppf "*\\{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Instr_id.pp)
      (S.elements e)

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  Loc_map.iter
    (fun loc p ->
      if not !first then Format.fprintf ppf "; ";
      first := false;
      Format.fprintf ppf "%a:%a" Tracing.Addr.pp loc pp_portion p)
    t;
  Format.fprintf ppf "}"

let union_all = List.fold_left union empty

module W = Tracing.Binio.W
module R = Tracing.Binio.R

let put w t =
  W.list w
    (fun w (loc, p) ->
      W.sint w loc;
      let all, sites = match p with Pos s -> (false, s) | All_except s -> (true, s) in
      W.bool w all;
      W.list w Instr_id.put (S.elements sites))
    (Loc_map.bindings t)

let get r =
  R.list r (fun r ->
      let loc = R.sint r in
      let all = R.bool r in
      let sites = S.of_list (R.list r Instr_id.get) in
      (loc, if all then All_except sites else Pos sites))
  |> List.to_seq |> Loc_map.of_seq
