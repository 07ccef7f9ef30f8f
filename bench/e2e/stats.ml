(* Order statistics over float samples. *)

(* The [q]-quantile, interpolating linearly between closest ranks; 0 for
   no samples. *)
let quantile q xs =
  match Array.of_list (List.sort Float.compare xs) with
  | [||] -> 0.
  | a ->
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean of positive samples; 0 for none. *)
let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

(* [a /. b], or 0 when [b] is 0. *)
let ratio a b = if b = 0. then 0. else a /. b
