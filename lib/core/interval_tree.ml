(* Height-balanced binary tree of disjoint, non-adjacent, non-empty
   half-open intervals [lo, hi), ordered by position.  Every node caches
   its height; balancing follows the stdlib's [Set]: sibling heights
   differ by at most 2.  A node is six words, as many as the cons cell
   plus pair of the sorted-list representation it replaced. *)

type t = Empty | Node of { l : t; lo : int; hi : int; r : t; h : int }

let empty = Empty
let is_empty = function Empty -> true | Node _ -> false
let height = function Empty -> 0 | Node { h; _ } -> h

let create l lo hi r =
  let hl = height l and hr = height r in
  Node { l; lo; hi; r; h = (if hl >= hr then hl + 1 else hr + 1) }

(* [l] and [r] balanced, heights differing by at most 3. *)
let bal l lo hi r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; lo = llo; hi = lhi; r = lr; _ } -> (
      if height ll >= height lr then create ll llo lhi (create lr lo hi r)
      else
        match lr with
        | Node { l = lrl; lo = lrlo; hi = lrhi; r = lrr; _ } ->
          create (create ll llo lhi lrl) lrlo lrhi (create lrr lo hi r)
        | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; lo = rlo; hi = rhi; r = rr; _ } -> (
      if height rr >= height rl then create (create l lo hi rl) rlo rhi rr
      else
        match rl with
        | Node { l = rll; lo = rllo; hi = rlhi; r = rlr; _ } ->
          create (create l lo hi rll) rllo rlhi (create rlr rlo rhi rr)
        | Empty -> assert false)
    | Empty -> assert false
  else create l lo hi r

let range lo hi = if hi <= lo then Empty else create Empty lo hi Empty
let singleton x = range x (x + 1)

let rec add_min lo hi = function
  | Empty -> create Empty lo hi Empty
  | Node { l; lo = x; hi = y; r; _ } -> bal (add_min lo hi l) x y r

let rec add_max lo hi = function
  | Empty -> create Empty lo hi Empty
  | Node { l; lo = x; hi = y; r; _ } -> bal l x y (add_max lo hi r)

(* Every interval of [l] ends before [lo] and every interval of [r]
   starts after [hi], both with a gap; O(|height l - height r|). *)
let rec join l lo hi r =
  match (l, r) with
  | Empty, _ -> add_min lo hi r
  | _, Empty -> add_max lo hi l
  | ( Node { l = ll; lo = llo; hi = lhi; r = lr; h = lh; _ },
      Node { l = rl; lo = rlo; hi = rhi; r = rr; h = rh; _ } ) ->
    if lh > rh + 2 then bal ll llo lhi (join lr lo hi r)
    else if rh > lh + 2 then bal (join l lo hi rl) rlo rhi rr
    else create l lo hi r

let rec remove_min = function
  | Empty -> Empty
  | Node { l = Empty; r; _ } -> r
  | Node { l; lo; hi; r; _ } -> bal (remove_min l) lo hi r

let rec leftmost = function
  | Node { l = Node _ as l; _ } -> leftmost l
  | t -> t

(* Every interval of [a] ends before every interval of [b] starts, with a
   gap. *)
let concat a b =
  match (a, leftmost b) with
  | Empty, _ -> b
  | _, Empty -> a
  | _, Node { lo; hi; _ } -> join a lo hi (remove_min b)

let rec mem x = function
  | Empty -> false
  | Node { l; lo; hi; r; _ } ->
    if x < lo then mem x l else if x >= hi then mem x r else true

(* Some interval contains all of [lo, hi) (non-empty). *)
let rec covers lo hi = function
  | Empty -> false
  | Node { l; lo = x; hi = y; r; _ } ->
    if lo < x then covers lo hi l else if lo >= y then covers lo hi r else hi <= y

(* Some interval meets [lo, hi) (non-empty). *)
let rec overlaps lo hi = function
  | Empty -> false
  | Node { l; lo = x; hi = y; r; _ } ->
    if y <= lo then overlaps lo hi r else if x >= hi then overlaps lo hi l else true

(* The intervals ending before [x] (not touching it), and the lower end of
   the interval that contains or touches [x], or [x] itself. *)
let rec cut_left x = function
  | Empty -> (Empty, x)
  | Node { l; lo; hi; r; _ } ->
    if hi < x then
      let rl, m = cut_left x r in
      (join l lo hi rl, m)
    else if lo <= x then (l, lo)
    else cut_left x l

(* Mirror image: the upper end of the interval that contains or touches
   [y] (or [y]), and the intervals starting after [y]. *)
let rec cut_right y = function
  | Empty -> (y, Empty)
  | Node { l; lo; hi; r; _ } ->
    if lo > y then
      let m, lr = cut_right y l in
      (m, join lr lo hi r)
    else if hi >= y then (hi, r)
    else cut_right y r

(* The elements below [x], and the elements at or above [x]. *)
let rec below x = function
  | Empty -> Empty
  | Node { l; lo; hi; r; _ } ->
    if hi <= x then join l lo hi (below x r)
    else if lo < x then add_max lo x l
    else below x l

let rec from x = function
  | Empty -> Empty
  | Node { l; lo; hi; r; _ } ->
    if lo >= x then join (from x l) lo hi r
    else if hi > x then add_min x hi r
    else from x r

let add_range lo hi t =
  if hi <= lo || covers lo hi t then t
  else
    let l, lo = cut_left lo t in
    let hi, r = cut_right hi t in
    join l lo hi r

let remove_range lo hi t =
  if hi <= lo || not (overlaps lo hi t) then t
  else concat (below lo t) (from hi t)

let rec fold_intervals f t acc =
  match t with
  | Empty -> acc
  | Node { l; lo; hi; r; _ } -> fold_intervals f r (f lo hi (fold_intervals f l acc))

let rec for_all p = function
  | Empty -> true
  | Node { l; lo; hi; r; _ } -> p lo hi && for_all p l && for_all p r

(* Calls [f] in order on each interval of [t] meeting [lo, hi), clipped
   to it: O(log n + k). *)
let rec iter_clipped f lo hi = function
  | Empty -> ()
  | Node { l; lo = x; hi = y; r; _ } ->
    if y <= lo then iter_clipped f lo hi r
    else if x >= hi then iter_clipped f lo hi l
    else begin
      iter_clipped f lo hi l;
      f (max lo x) (min hi y);
      iter_clipped f lo hi r
    end

(* In-order enumeration: an interval, the right subtree it heads, and
   the rest. *)
type enum = End | More of int * int * t * enum

let rec cons_enum t e =
  match t with
  | Empty -> e
  | Node { l; lo; hi; r; _ } -> cons_enum l (More (lo, hi, r, e))

(* Output of the merges and probes: intervals pushed in ascending order
   of [lo], kept reversed and counted, overlapping or adjacent pushes
   coalesced.  Everything here is a small block: large sets churn the
   minor heap, not the major one. *)
type acc = { mutable k : int; mutable rev : (int * int) list }

let acc () = { k = 0; rev = [] }

let push a lo hi =
  match a.rev with
  | (plo, phi) :: rest when lo <= phi ->
    if hi > phi then a.rev <- (plo, hi) :: rest
  | rev ->
    a.rev <- (lo, hi) :: rev;
    a.k <- a.k + 1

(* A perfectly balanced tree from [n] canonical intervals listed in
   descending order: O(n). *)
let of_desc n l =
  let rec build n l =
    if n = 0 then (Empty, l)
    else
      let right, l = build (n / 2) l in
      match l with
      | (lo, hi) :: l ->
        let left, l = build (n - (n / 2) - 1) l in
        (create left lo hi right, l)
      | [] -> assert false
  in
  fst (build n l)

let to_tree a = of_desc a.k a.rev

let rec ilog2 n = if n <= 1 then 0 else 1 + ilog2 (n lsr 1)

(* Whether to fold the smaller operand's intervals one by one into the
   larger (O(m log n) for m and n intervals) rather than merge linearly
   (O(m + n)).  Heights stand in for counts: a tree of height h holds
   between about 1.46^h and 2^h - 1 intervals. *)
let folds h_small h_big = h_small + ilog2 h_big <= h_big

let union_linear a b =
  let out = acc () in
  let rec go e1 e2 =
    match (e1, e2) with
    | End, End -> ()
    | More (lo, hi, r, e), End ->
      push out lo hi;
      go (cons_enum r e) End
    | End, More (lo, hi, r, e) ->
      push out lo hi;
      go End (cons_enum r e)
    | More (lo1, hi1, r1, n1), More (lo2, hi2, r2, n2) ->
      if lo1 <= lo2 then begin
        push out lo1 hi1;
        go (cons_enum r1 n1) e2
      end
      else begin
        push out lo2 hi2;
        go e1 (cons_enum r2 n2)
      end
  in
  go (cons_enum a End) (cons_enum b End);
  to_tree out

let union a b =
  let ha = height a and hb = height b in
  if a == b || hb = 0 then a
  else if ha = 0 then b
  else if ha <= hb && folds ha hb then fold_intervals add_range a b
  else if hb < ha && folds hb ha then fold_intervals add_range b a
  else union_linear a b

let inter_linear a b =
  let out = acc () in
  let rec go e1 e2 =
    match (e1, e2) with
    | End, _ | _, End -> ()
    | More (lo1, hi1, r1, n1), More (lo2, hi2, r2, n2) ->
      let lo = max lo1 lo2 and hi = min hi1 hi2 in
      if lo < hi then push out lo hi;
      if hi1 < hi2 then go (cons_enum r1 n1) e2 else go e1 (cons_enum r2 n2)
  in
  go (cons_enum a End) (cons_enum b End);
  to_tree out

(* Clip [big] to each interval of [small] in turn. *)
let inter_probe small big =
  let out = acc () in
  fold_intervals (fun lo hi () -> iter_clipped (push out) lo hi big) small ();
  to_tree out

let inter a b =
  let ha = height a and hb = height b in
  if a == b || ha = 0 then a
  else if hb = 0 then b
  else if ha <= hb && folds ha hb then inter_probe a b
  else if hb < ha && folds hb ha then inter_probe b a
  else inter_linear a b

(* Each interval of [a] minus the intervals of [b] inside it. *)
let diff_probe a b =
  let out = acc () in
  fold_intervals
    (fun lo hi () ->
      let p = ref lo in
      iter_clipped
        (fun x y ->
          if x > !p then push out !p x;
          p := y)
        lo hi b;
      if !p < hi then push out !p hi)
    a ();
  to_tree out

let diff_linear a b =
  let out = acc () in
  let rec go e1 e2 =
    match (e1, e2) with
    | End, _ -> ()
    | More (lo, hi, r1, n1), End ->
      push out lo hi;
      go (cons_enum r1 n1) End
    | More (lo, hi, r1, n1), More (blo, bhi, r2, n2) ->
      if bhi <= lo then go e1 (cons_enum r2 n2)
      else if blo >= hi then begin
        push out lo hi;
        go (cons_enum r1 n1) e2
      end
      else begin
        if blo > lo then push out lo blo;
        (* A [b] interval reaching past [hi] may cut the next one too. *)
        if bhi < hi then go (More (bhi, hi, r1, n1)) (cons_enum r2 n2)
        else go (cons_enum r1 n1) e2
      end
  in
  go (cons_enum a End) (cons_enum b End);
  to_tree out

let diff a b =
  let ha = height a and hb = height b in
  if a == b then Empty
  else if ha = 0 || hb = 0 then a
  else if folds hb ha then fold_intervals remove_range b a
  else if folds ha hb then diff_probe a b
  else diff_linear a b

let subset a b = a == b || for_all (fun lo hi -> covers lo hi b) a

let disjoint a b =
  if height a <= height b then
    for_all (fun lo hi -> not (overlaps lo hi b)) a
  else for_all (fun lo hi -> not (overlaps lo hi a)) b

let equal a b =
  let rec go e1 e2 =
    match (e1, e2) with
    | End, End -> true
    | End, More _ | More _, End -> false
    | More (lo1, hi1, r1, e1), More (lo2, hi2, r2, e2) ->
      lo1 = lo2 && hi1 = hi2 && go (cons_enum r1 e1) (cons_enum r2 e2)
  in
  a == b || go (cons_enum a End) (cons_enum b End)

let interval_count t = fold_intervals (fun _ _ n -> n + 1) t 0
let cardinal t = fold_intervals (fun lo hi n -> n + (hi - lo)) t 0

let intervals t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Node { l; lo; hi; r; _ } -> go l ((lo, hi) :: go r acc)
  in
  go t []

(* Already-canonical input (snapshots, reports, batch constructors) skips
   the sort. *)
let of_intervals l =
  let rec canonical prev = function
    | [] -> true
    | (lo, hi) :: rest -> prev < lo && lo < hi && canonical hi rest
  in
  let sorted =
    match l with
    | (lo, hi) :: rest when lo < hi && canonical hi rest -> l
    | _ -> List.sort compare l
  in
  let out = acc () in
  List.iter (fun (lo, hi) -> if lo < hi then push out lo hi) sorted;
  to_tree out

(* Sort once; [push] coalesces repeats and adjacent runs, and the tree is
   built once. *)
let of_list xs =
  let out = acc () in
  List.iter (fun x -> push out x (x + 1)) (List.sort Int.compare xs);
  to_tree out

let choose t = match leftmost t with Empty -> None | Node { lo; _ } -> Some lo

let iter f t =
  fold_intervals
    (fun lo hi () ->
      for x = lo to hi - 1 do
        f x
      done)
    t ()

let elements t =
  List.concat_map (fun (lo, hi) -> List.init (hi - lo) (fun k -> lo + k)) (intervals t)

let pp ppf t =
  Format.fprintf ppf "{";
  List.iteri
    (fun k (lo, hi) ->
      if k > 0 then Format.fprintf ppf ", ";
      if hi = lo + 1 then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "%d..%d" lo (hi - 1))
    (intervals t);
  Format.fprintf ppf "}"

(* Union into the tallest operand, so small operands fold into it. *)
let union_all = function
  | [] -> Empty
  | s :: rest as all ->
    let tallest =
      List.fold_left (fun b s -> if height s > height b then s else b) s rest
    in
    List.fold_left union tallest all

exception Invalid of string

let check t =
  let fail fmt = Format.kasprintf (fun m -> raise (Invalid m)) fmt in
  (* Returns the subtree's height and greatest [hi] (or [prev_hi]). *)
  let rec go prev_hi = function
    | Empty -> (0, prev_hi)
    | Node { l; lo; hi; r; h } ->
      let hl, prev = go prev_hi l in
      if lo >= hi then fail "empty interval [%d, %d)" lo hi;
      (match prev with
      | Some p when p >= lo ->
        fail "[%d, %d) overlaps or touches its predecessor" lo hi
      | _ -> ());
      let hr, last = go (Some hi) r in
      if abs (hl - hr) > 2 then
        fail "unbalanced at [%d, %d): heights %d and %d" lo hi hl hr;
      if h <> 1 + max hl hr then fail "stale height at [%d, %d)" lo hi;
      (h, last)
  in
  match go None t with _ -> Ok () | exception Invalid m -> Error m
