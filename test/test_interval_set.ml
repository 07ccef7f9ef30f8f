(* Interval_set: unit tests plus a model-based qcheck battery.

   Every operation is checked against a reference model: a bool array
   over the universe [0, 64), and the former sorted-list implementation
   ([List_ref] below) for a 2^16 universe and for sparse addresses near
   2^40.  After every operation the tree's own invariants are checked
   through [Interval_tree.check]: intervals in canonical order (sorted,
   disjoint, non-adjacent, non-empty), sibling heights within 2, cached
   heights exact.  Sequences of up to 256 operations grow trees tall
   enough to rotate at every level. *)

module I = Butterfly.Interval_set
module T = Butterfly.Interval_tree

(* Reference: bool array over the small universe. *)
let small_universe = 64

module Ref = struct
  type t = bool array [@@warning "-34"]

  let of_iset (s : I.t) = Array.init small_universe (fun x -> I.mem x s)
  let binop f a b = Array.init small_universe (fun x -> f a.(x) b.(x))
  let union = binop ( || )
  let inter = binop ( && )
  let diff = binop (fun x y -> x && not y)
  let equal = ( = )
end

(* Reference: the sorted-list representation [Interval_set] used before
   the tree.  Canonical form: sorted, disjoint, non-adjacent, non-empty. *)
module List_ref = struct
  type t = (int * int) list

  let empty : t = []
  let range lo hi : t = if hi <= lo then [] else [ (lo, hi) ]

  let union a b =
    let rec push acc = function
      | [] -> List.rev acc
      | (lo, hi) :: rest -> (
        match acc with
        | (plo, phi) :: acc' when lo <= phi ->
          push ((plo, max phi hi) :: acc') rest
        | _ -> push ((lo, hi) :: acc) rest)
    in
    let rec go acc a b =
      match (a, b) with
      | [], rest | rest, [] -> push acc rest
      | (alo, _) :: _, (blo, _) :: _ ->
        let (lo, hi), a, b =
          if alo <= blo then (List.hd a, List.tl a, b)
          else (List.hd b, a, List.tl b)
        in
        (match acc with
        | (plo, phi) :: acc' when lo <= phi ->
          go ((plo, max phi hi) :: acc') a b
        | _ -> go ((lo, hi) :: acc) a b)
    in
    go [] a b

  let rec inter a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | (alo, ahi) :: a', (blo, bhi) :: b' ->
      let lo = max alo blo and hi = min ahi bhi in
      let rest = if ahi < bhi then inter a' b else inter a b' in
      if lo < hi then (lo, hi) :: rest else rest

  let rec diff a b =
    match (a, b) with
    | [], _ -> []
    | _, [] -> a
    | (alo, ahi) :: a', (blo, bhi) :: b' ->
      if bhi <= alo then diff a b'
      else if ahi <= blo then (alo, ahi) :: diff a' b
      else
        let left = if alo < blo then [ (alo, blo) ] else [] in
        if ahi <= bhi then left @ diff a' b
        else left @ diff ((bhi, ahi) :: a') b'

  let add_range lo hi t = union (range lo hi) t
  let remove_range lo hi t = diff t (range lo hi)

  let rec mem x = function
    | [] -> false
    | (lo, hi) :: rest -> if x < lo then false else x < hi || mem x rest

  let cardinal t = List.fold_left (fun n (lo, hi) -> n + (hi - lo)) 0 t
end

(* ---------------------------------------------------------------- *)
(* Operation sequences over three universes. *)

type op = { lo : int; hi : int; add : bool }

type universe = {
  name : string;
  gen_op : op QCheck.Gen.t;
  gen_point : int QCheck.Gen.t;
}

let op_of lo len add = { lo; hi = lo + len; add }

let small =
  {
    name = "2^6";
    gen_op =
      QCheck.Gen.(
        map3
          (fun lo len add -> op_of lo (min len (small_universe - lo)) add)
          (int_bound (small_universe - 1))
          (int_bound 16) bool);
    gen_point = QCheck.Gen.int_bound (small_universe - 1);
  }

let mid =
  let span = 1 lsl 16 in
  {
    name = "2^16";
    gen_op =
      QCheck.Gen.(
        map3 op_of (int_bound (span - 1))
          (frequency [ (4, int_bound 8); (2, int_bound 256); (1, int_bound 8192) ])
          bool);
    gen_point = QCheck.Gen.int_bound (span - 1);
  }

(* Heap-like: scattered short objects and a few huge ranges, all within a
   2^30 window around 2^40. *)
let sparse =
  let base = 1 lsl 40 and window = 1 lsl 30 in
  let addr = QCheck.Gen.map (fun k -> base + k) (QCheck.Gen.int_bound window) in
  {
    name = "sparse 2^40";
    gen_op =
      QCheck.Gen.(
        map3 op_of addr
          (frequency [ (6, int_bound 64); (2, int_bound 4096); (1, int_bound (1 lsl 24)) ])
          bool);
    gen_point =
      QCheck.Gen.(
        frequency [ (1, addr); (1, map (fun k -> base + k) (int_bound 4096)) ]);
  }

let gen_ops u = QCheck.Gen.(list_size (int_bound 256) u.gen_op)

let pp_op ppf o =
  Format.fprintf ppf "%s [%d, %d)" (if o.add then "add" else "remove") o.lo o.hi

let print_ops ops = Format.asprintf "%a" (Format.pp_print_list pp_op) ops
let arb_ops u = QCheck.make ~print:print_ops (gen_ops u)

let apply_t o s = if o.add then T.add_range o.lo o.hi s else T.remove_range o.lo o.hi s

let apply_ref o r =
  if o.add then List_ref.add_range o.lo o.hi r else List_ref.remove_range o.lo o.hi r

let fail fmt = Format.kasprintf (fun m -> QCheck.Test.fail_report m) fmt

(* [s] is well-formed and holds exactly [r]. *)
let agrees what s r =
  (match T.check s with
  | Ok () -> ()
  | Error m -> fail "%s: broken invariant: %s" what m);
  if T.intervals s <> r then
    fail "%s: %a differs from the reference" what T.pp s

let build ops = List.fold_left (fun s o -> apply_t o s) T.empty ops
let build_ref ops = List.fold_left (fun r o -> apply_ref o r) List_ref.empty ops

let prop_steps ops =
  ignore
    (List.fold_left
       (fun (s, r) o ->
         let s = apply_t o s and r = apply_ref o r in
         agrees (Format.asprintf "after %a" pp_op o) s r;
         (s, r))
       (T.empty, List_ref.empty) ops);
  true

let prop_binops (a, b) =
  let sa = build a and sb = build b in
  let ra = build_ref a and rb = build_ref b in
  agrees "union" (T.union sa sb) (List_ref.union ra rb);
  agrees "inter" (T.inter sa sb) (List_ref.inter ra rb);
  agrees "diff" (T.diff sa sb) (List_ref.diff ra rb);
  agrees "diff (reversed)" (T.diff sb sa) (List_ref.diff rb ra);
  agrees "union_all" (T.union_all [ sa; sb; sa ]) (List_ref.union ra rb);
  T.subset sa sb = (List_ref.diff ra rb = [])
  && T.disjoint sa sb = (List_ref.inter ra rb = [])
  && T.equal sa sb = (ra = rb)
  && T.equal (T.union sa sb) (T.union sb sa)

(* A small operand against a large one: exercises the fold and probe
   paths of the size-directed set algebra. *)
let prop_lopsided (a, b) =
  let a = List.filteri (fun i _ -> i < 3) a in
  prop_binops (a, b) && prop_binops (b, a)

let prop_queries (ops, points) =
  let s = build ops and r = build_ref ops in
  List.for_all (fun x -> T.mem x s = List_ref.mem x r) points
  && T.cardinal s = List_ref.cardinal r
  && T.interval_count s = List.length r
  && T.choose s = (match r with [] -> None | (lo, _) :: _ -> Some lo)

(* Rebuilding from any permutation of overlapping pieces is canonical. *)
let prop_of_intervals ops =
  let r = build_ref ops in
  let pieces =
    List.concat_map
      (fun (lo, hi) ->
        let mid = lo + ((hi - lo) / 2) in
        [ (mid, hi); (lo, mid + 1); (hi, hi) ])
      r
  in
  agrees "of_intervals (shuffled)" (T.of_intervals (List.rev pieces)) r;
  agrees "of_intervals (canonical)" (T.of_intervals r) r;
  true

let universe_tests u =
  let arb2 = QCheck.pair (arb_ops u) (arb_ops u) in
  let points = QCheck.Gen.(list_size (int_bound 64) u.gen_point) in
  let arb_q =
    QCheck.make ~print:(fun (ops, _) -> print_ops ops)
      QCheck.Gen.(pair (gen_ops u) points)
  in
  let name s = Printf.sprintf "%s: %s" u.name s in
  [
    Testutil.qtest ~count:150 (name "every step matches the list model")
      (arb_ops u) prop_steps;
    Testutil.qtest ~count:150 (name "set algebra matches the list model") arb2
      prop_binops;
    Testutil.qtest ~count:100 (name "small-vs-large algebra matches") arb2
      prop_lopsided;
    Testutil.qtest ~count:150 (name "queries match the list model") arb_q
      prop_queries;
    Testutil.qtest ~count:100 (name "of_intervals is canonical") (arb_ops u)
      prop_of_intervals;
  ]

(* The bool-array model on the small universe, through the sealed
   [Interval_set] interface. *)
let build_i ops =
  List.fold_left
    (fun s o -> if o.add then I.add_range o.lo o.hi s else I.remove_range o.lo o.hi s)
    I.empty ops

let bool_model_tests =
  let arb = arb_ops small in
  let arb2 = QCheck.pair arb arb in
  [
    Testutil.qtest "2^6: build matches the bool-array model" arb (fun ops ->
        let r =
          List.fold_left
            (fun r o -> Array.mapi (fun x v -> if x >= o.lo && x < o.hi then o.add else v) r)
            (Array.make small_universe false)
            ops
        in
        Ref.equal (Ref.of_iset (build_i ops)) r);
    Testutil.qtest "2^6: union/inter/diff match the bool-array model" arb2
      (fun (a, b) ->
        let sa = build_i a and sb = build_i b in
        let ra = Ref.of_iset sa and rb = Ref.of_iset sb in
        Ref.equal (Ref.of_iset (I.union sa sb)) (Ref.union ra rb)
        && Ref.equal (Ref.of_iset (I.inter sa sb)) (Ref.inter ra rb)
        && Ref.equal (Ref.of_iset (I.diff sa sb)) (Ref.diff ra rb));
    Testutil.qtest "2^6: equal is semantic" arb2 (fun (a, b) ->
        let sa = build_i a and sb = build_i b in
        I.equal sa sb = Ref.equal (Ref.of_iset sa) (Ref.of_iset sb));
    Testutil.qtest "2^6: cardinal and elements match" arb (fun ops ->
        let s = build_i ops in
        let r = Ref.of_iset s in
        I.cardinal s = Array.fold_left (fun n v -> if v then n + 1 else n) 0 r
        && I.elements s
           = List.filter (fun x -> r.(x)) (List.init small_universe Fun.id));
  ]

(* [of_list], the batch constructor the lifeguards build access
   footprints with.  Inputs are shuffled, repeat elements and hold
   adjacent runs, so the coalescing of repeats and of neighbours into
   one interval is exercised on every case. *)
let gen_points =
  QCheck.Gen.(
    let x = int_bound (small_universe - 1) in
    let* singles = list_size (int_bound 32) x in
    let* runs = list_size (int_bound 4) (pair x (int_bound 12)) in
    let run_elems =
      List.concat_map
        (fun (lo, len) -> List.init (min len (small_universe - lo)) (( + ) lo))
        runs
    in
    let* repeats = list_size (int_bound 8) (oneofl (0 :: singles)) in
    shuffle_l (singles @ run_elems @ repeats))

let arb_points = QCheck.make ~print:QCheck.Print.(list int) gen_points

let of_list_tests =
  [
    Testutil.qtest "2^6: of_list matches the bool-array model" arb_points
      (fun xs ->
        let r = Array.make small_universe false in
        List.iter (fun x -> r.(x) <- true) xs;
        Ref.equal (Ref.of_iset (I.of_list xs)) r);
    Testutil.qtest "2^6: of_list builds a well-formed tree" arb_points
      (fun xs ->
        (match T.check (T.of_list xs) with
        | Ok () -> ()
        | Error m -> fail "of_list: broken invariant: %s" m);
        true);
    Testutil.qtest "2^6: of_list = fold of singleton unions" arb_points
      (fun xs ->
        I.equal (I.of_list xs)
          (List.fold_left (fun s x -> I.union s (I.singleton x)) I.empty xs));
    Testutil.qtest "2^6: of_list ignores input order" arb_points (fun xs ->
        I.intervals (I.of_list xs) = I.intervals (I.of_list (List.rev xs)));
    Alcotest.test_case "of_list edge cases" `Quick (fun () ->
        Testutil.checkb "empty" true (I.is_empty (I.of_list []));
        Alcotest.(check (list (pair int int)))
          "repeats and adjacent runs coalesce"
          [ (3, 7); (9, 10) ]
          (I.intervals (I.of_list [ 6; 4; 9; 3; 5; 4; 9; 5 ]));
        (* A 2^40 span costs two intervals, not the span. *)
        Alcotest.(check (list (pair int int)))
          "sparse" [ (16, 17); (1 lsl 40, (1 lsl 40) + 1) ]
          (I.intervals (I.of_list [ 1 lsl 40; 16; 1 lsl 40 ])));
  ]

(* ---------------------------------------------------------------- *)
(* Element-level reference: Set.Make (Int) over three clusters of 64
   addresses at 0, 2^40 and 2^61 — a span no bool array can model.
   Each property names one operation the lifeguards perform on their
   fact sets; agreement is checked through [elements]. *)

module S = Set.Make (Int)

let cluster_bases = [ 0; 1 lsl 40; 1 lsl 61 ]

let cluster_addr =
  QCheck.Gen.(map2 ( + ) (oneofl cluster_bases) (int_bound 63))

let cluster_addrs = QCheck.Gen.(list_size (int_bound 40) cluster_addr)
let arb_cluster = QCheck.make ~print:QCheck.Print.(list int) cluster_addrs

let arb_cluster2 =
  QCheck.make
    ~print:QCheck.Print.(pair (list int) (list int))
    QCheck.Gen.(pair cluster_addrs cluster_addrs)

let sets_of l = (I.of_list l, S.of_list l)
let agree_elts s r = I.elements s = S.elements r

(* Every address any generated set can hold, plus both neighbours of
   each cluster. *)
let cluster_universe =
  List.concat_map (fun b -> List.init 66 (fun k -> b - 1 + k)) cluster_bases

let set_reference_tests =
  [
    Testutil.qtest "of_list agrees with Set.of_list" arb_cluster (fun l ->
        let s, r = sets_of l in
        agree_elts s r && I.cardinal s = S.cardinal r);
    Testutil.qtest "mem agrees on every cluster address" arb_cluster (fun l ->
        let s, r = sets_of l in
        List.for_all (fun x -> I.mem x s = S.mem x r) cluster_universe);
    Testutil.qtest "add_range of one address agrees with add" arb_cluster
      (fun l ->
        match l with
        | [] -> true
        | x :: rest ->
          let s, r = sets_of rest in
          agree_elts (I.add_range x (x + 1) s) (S.add x r));
    Testutil.qtest "remove_range of one address agrees with remove"
      arb_cluster (fun l ->
        match l with
        | [] -> true
        | x :: _ ->
          let s, r = sets_of l in
          agree_elts (I.remove_range x (x + 1) s) (S.remove x r));
    Testutil.qtest "union agrees" arb_cluster2 (fun (l1, l2) ->
        let s1, r1 = sets_of l1 and s2, r2 = sets_of l2 in
        agree_elts (I.union s1 s2) (S.union r1 r2));
    Testutil.qtest "inter agrees" arb_cluster2 (fun (l1, l2) ->
        let s1, r1 = sets_of l1 and s2, r2 = sets_of l2 in
        agree_elts (I.inter s1 s2) (S.inter r1 r2));
    Testutil.qtest "diff agrees" arb_cluster2 (fun (l1, l2) ->
        let s1, r1 = sets_of l1 and s2, r2 = sets_of l2 in
        agree_elts (I.diff s1 s2) (S.diff r1 r2));
    Testutil.qtest "subset and disjoint agree" arb_cluster2 (fun (l1, l2) ->
        let s1, r1 = sets_of l1 and s2, r2 = sets_of l2 in
        I.subset s1 s2 = S.subset r1 r2 && I.disjoint s1 s2 = S.disjoint r1 r2);
    Testutil.qtest "equal is semantic equality" arb_cluster2 (fun (l1, l2) ->
        let s1, r1 = sets_of l1 and s2, r2 = sets_of l2 in
        I.equal s1 s2 = S.equal r1 r2);
    Testutil.qtest "union_all = fold union"
      (QCheck.make
         ~print:QCheck.Print.(list (list int))
         QCheck.Gen.(list_size (int_bound 6) cluster_addrs))
      (fun ls ->
        let ss = List.map I.of_list ls in
        I.equal (I.union_all ss) (List.fold_left I.union I.empty ss)
        && agree_elts (I.union_all ss)
             (List.fold_left (fun r l -> S.union r (S.of_list l)) S.empty ls));
    Testutil.qtest "range agrees with an explicit enumeration"
      (QCheck.make
         ~print:QCheck.Print.(pair int int)
         QCheck.Gen.(pair cluster_addr (int_bound 80)))
      (fun (lo, len) ->
        I.elements (I.range lo (lo + len)) = List.init len (fun i -> lo + i));
    Testutil.qtest "intervals round-trip" arb_cluster (fun l ->
        let s = I.of_list l in
        I.equal (I.of_intervals (I.intervals s)) s
        && I.intervals (I.of_intervals (I.intervals s)) = I.intervals s);
    Testutil.qtest "choose / fold_intervals / iter agree" arb_cluster
      (fun l ->
        let s, r = sets_of l in
        I.choose s = S.min_elt_opt r
        && I.fold_intervals (fun lo hi n -> n + (hi - lo)) s 0 = S.cardinal r
        &&
        let seen = ref [] in
        I.iter (fun x -> seen := x :: !seen) s;
        List.rev !seen = S.elements r);
  ]

(* ---------------------------------------------------------------- *)
(* Edge cases the model generators do not reliably hit. *)

let edge_tests =
  [
    Alcotest.test_case "zero-length ranges" `Quick (fun () ->
        let s = I.of_list [ 3; 9 ] in
        Testutil.checkb "range x x" true (I.is_empty (I.range 7 7));
        Testutil.checkb "range 0 0" true (I.is_empty (I.range 0 0));
        Testutil.checkb "add_range x x is a no-op" true (I.add_range 5 5 s == s);
        Testutil.checkb "add_range hi<lo is a no-op" true
          (I.add_range 9 3 s == s);
        Testutil.checkb "remove_range x x is a no-op" true
          (I.remove_range 3 3 s == s);
        Testutil.checkb "union_all []" true (I.is_empty (I.union_all []));
        Testutil.checkb "union empty empty" true
          (I.is_empty (I.union I.empty I.empty));
        Testutil.checkb "of_intervals of empty pieces" true
          (I.is_empty (I.of_intervals [ (4, 4); (8, 2) ])));
    Alcotest.test_case "extreme addresses" `Quick (fun () ->
        let top = max_int - 1 in
        let s = I.union (I.singleton 0) (I.singleton top) in
        Alcotest.(check int) "cardinal" 2 (I.cardinal s);
        Alcotest.(check int) "two intervals" 2 (I.interval_count s);
        Testutil.checkb "mem top" true (I.mem top s);
        Testutil.checkb "mem max_int" false (I.mem max_int s);
        Testutil.checkb "mem middle" false (I.mem (top / 2) s);
        Alcotest.(check (list int)) "elements" [ 0; top ] (I.elements s);
        Alcotest.(check (list (pair int int)))
          "range up to max_int" [ (max_int - 3, max_int) ]
          (I.intervals (I.range (max_int - 3) max_int));
        (* Negative addresses are ordinary integers to the set. *)
        Alcotest.(check (list int))
          "negative" [ -2; -1; 0 ]
          (I.elements (I.of_list [ 0; -1; -2; -1 ])));
    Alcotest.test_case "refill after removing everything" `Quick (fun () ->
        let s =
          I.of_list [ 1; 64; 700; 1 lsl 40 ] |> I.add_range 100 110
        in
        let cleared = I.remove_range 0 ((1 lsl 40) + 1) s in
        Testutil.checkb "cleared" true (I.is_empty cleared);
        (* The emptied set carries nothing from before into new algebra. *)
        let refilled =
          I.add_range 100 110 (I.add_range 3 4 cleared)
          |> I.inter (I.of_list [ 3; 101; 105; 700 ])
          |> fun s -> I.diff s (I.singleton 105)
        in
        Alcotest.(check (list int)) "refilled" [ 3; 101 ] (I.elements refilled);
        Alcotest.(check (list (pair int int)))
          "canonical intervals" [ (3, 4); (101, 102) ] (I.intervals refilled));
  ]

(* ---------------------------------------------------------------- *)
(* Physical sharing: no-ops return their argument, so callers (the
   dataflow pass-2 loop) can detect "unchanged" with [==]. *)

let sharing_tests =
  let arb = arb_ops mid in
  [
    Testutil.qtest "no-ops return their argument physically" arb (fun ops ->
        let s = build_i ops in
        let covered =
          List.for_all
            (fun (lo, hi) ->
              I.add_range lo hi s == s
              && I.add_range (lo + ((hi - lo) / 2)) hi s == s
              && I.add_range lo (lo + 1) s == s
              (* The pass-2 GEN of a re-written, already-defined byte. *)
              && I.union (I.singleton (hi - 1)) s == s)
            (I.intervals s)
        in
        let gaps =
          let rec go = function
            | (_, h1) :: ((l2, _) :: _ as rest) -> (h1, l2) :: go rest
            | _ -> []
          in
          go (I.intervals s)
        in
        let disjoint =
          List.for_all (fun (lo, hi) -> I.remove_range lo hi s == s) gaps
        in
        covered && disjoint
        && I.union s s == s
        && I.union s I.empty == s
        && I.union I.empty s == s
        && I.inter s s == s
        && I.diff s I.empty == s
        && I.remove_range (-10) (-1) s == s);
  ]

(* ---------------------------------------------------------------- *)
(* Equal sets may be shaped differently: everything observable must
   still agree.  This is why no caller may compare sets with [=]. *)

let put_is_bytes s =
  let w = Tracing.Binio.W.create () in
  Butterfly.Interval_set.put w s;
  Tracing.Binio.W.contents w

let same_set_observably what a b =
  Testutil.checkb (what ^ ": equal") true (I.equal a b);
  Alcotest.(check string)
    (what ^ ": pp")
    (Format.asprintf "%a" I.pp a)
    (Format.asprintf "%a" I.pp b);
  Alcotest.(check string) (what ^ ": put_is bytes") (put_is_bytes a) (put_is_bytes b)

let shape_tests =
  [
    Alcotest.test_case "equal sets built in different orders" `Quick (fun () ->
        let ivs = List.init 200 (fun k -> (10 * k, (10 * k) + 3)) in
        let ascending =
          List.fold_left (fun s (lo, hi) -> I.add_range lo hi s) I.empty ivs
        in
        let descending =
          List.fold_left
            (fun s (lo, hi) -> I.add_range lo hi s)
            I.empty (List.rev ivs)
        in
        let batch = I.of_intervals ivs in
        let carved =
          List.fold_left
            (fun s (_, hi) -> I.remove_range hi (hi + 7) s)
            (I.range 0 2000) ivs
        in
        (* The shapes really differ, so the checks below are not vacuous. *)
        Testutil.checkb "polymorphic = tells the shapes apart" false
          (Stdlib.( = ) ascending batch);
        same_set_observably "ascending vs batch" ascending batch;
        same_set_observably "descending vs batch" descending batch;
        same_set_observably "carved vs batch" carved batch);
    Testutil.qtest "equal sets encode identically" (arb_ops mid) (fun ops ->
        let s = build_i ops in
        let rebuilt = I.of_intervals (List.rev (I.intervals s)) in
        I.equal s rebuilt
        && Format.asprintf "%a" I.pp s = Format.asprintf "%a" I.pp rebuilt
        && put_is_bytes s = put_is_bytes rebuilt);
  ]

(* ---------------------------------------------------------------- *)

let unit_tests =
  [
    Alcotest.test_case "empty" `Quick (fun () ->
        Testutil.checkb "is_empty" true (I.is_empty I.empty);
        Testutil.checkb "mem" false (I.mem 3 I.empty));
    Alcotest.test_case "range basics" `Quick (fun () ->
        let s = I.range 10 20 in
        Testutil.checkb "mem lo" true (I.mem 10 s);
        Testutil.checkb "mem hi-1" true (I.mem 19 s);
        Testutil.checkb "mem hi" false (I.mem 20 s);
        Alcotest.(check int) "cardinal" 10 (I.cardinal s));
    Alcotest.test_case "adjacent ranges merge" `Quick (fun () ->
        let s = I.union (I.range 0 5) (I.range 5 10) in
        Alcotest.(check int) "one interval" 1 (I.interval_count s);
        Testutil.checkb "equal" true (I.equal s (I.range 0 10)));
    Alcotest.test_case "remove splits" `Quick (fun () ->
        let s = I.remove_range 3 5 (I.range 0 10) in
        Alcotest.(check int) "two intervals" 2 (I.interval_count s);
        Testutil.checkb "left" true (I.mem 2 s);
        Testutil.checkb "gone" false (I.mem 4 s);
        Testutil.checkb "right" true (I.mem 5 s));
    Alcotest.test_case "empty range is empty" `Quick (fun () ->
        Testutil.checkb "hi<=lo" true (I.is_empty (I.range 5 5));
        Testutil.checkb "hi<lo" true (I.is_empty (I.range 5 2)));
    Alcotest.test_case "of_intervals normalizes" `Quick (fun () ->
        let s = I.of_intervals [ (5, 8); (0, 6); (10, 10); (8, 9) ] in
        Testutil.checkb "merged" true (I.equal s (I.range 0 9)));
    Alcotest.test_case "choose" `Quick (fun () ->
        Alcotest.(check (option int)) "min" (Some 3)
          (I.choose (I.of_intervals [ (7, 9); (3, 4) ]));
        Alcotest.(check (option int)) "none" None (I.choose I.empty));
    Alcotest.test_case "elements" `Quick (fun () ->
        Alcotest.(check (list int)) "elems" [ 1; 2; 5 ]
          (I.elements (I.of_intervals [ (1, 3); (5, 6) ])));
    Alcotest.test_case "subset/disjoint" `Quick (fun () ->
        Testutil.checkb "subset" true (I.subset (I.range 2 4) (I.range 0 10));
        Testutil.checkb "not subset" false (I.subset (I.range 2 12) (I.range 0 10));
        Testutil.checkb "disjoint" true (I.disjoint (I.range 0 5) (I.range 5 9));
        Testutil.checkb "not disjoint" false (I.disjoint (I.range 0 6) (I.range 5 9)));
    Alcotest.test_case "balanced after sequential inserts" `Quick (fun () ->
        let n = 4096 in
        let s =
          List.fold_left
            (fun s k -> T.add_range (3 * k) ((3 * k) + 1) s)
            T.empty (List.init n Fun.id)
        in
        Alcotest.(check (result unit string)) "invariants" (Ok ()) (T.check s);
        Alcotest.(check int) "count" n (T.interval_count s);
        (* Sibling heights within 2 bound the height by about 1.8 log2 n. *)
        Testutil.checkb
          (Printf.sprintf "height %d is logarithmic" (T.height s))
          true
          (T.height s <= 24));
  ]

let () =
  Alcotest.run "interval_set"
    [
      ("unit", unit_tests);
      ("bool-model", bool_model_tests);
      ("of-list", of_list_tests);
      ("set-reference", set_reference_tests);
      ("edges", edge_tests);
      ("model-2^6", universe_tests small);
      ("model-2^16", universe_tests mid);
      ("model-sparse", universe_tests sparse);
      ("sharing", sharing_tests);
      ("shapes", shape_tests);
    ]
