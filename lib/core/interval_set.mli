(** Sets of integers represented as disjoint half-open intervals.

    AddrCheck's shadow state conceptually stores one allocation bit per byte
    of the application address space; allocations arrive as ranges
    ([malloc base size]), so the compressed representation is a set of
    disjoint, non-adjacent intervals [\[lo, hi)], held in a height-balanced
    binary tree ordered by position ({!Interval_tree}).  Its size follows
    the number of intervals, never the address span.

    Costs, for sets of [n] and [m <= n] intervals and [k] output
    intervals: {!mem}, {!add_range} and {!remove_range} are O(log n), and
    {!mem} allocates nothing.  {!union}, {!inter} and {!diff} fold the
    smaller operand into the larger in O(m log n) when [m] is small
    enough, and otherwise merge linearly in O(m + n).  {!disjoint} is
    O(m log n), [subset a b] O(|a| log |b|); {!equal} is O(n); {!cardinal},
    {!interval_count}, {!intervals} and {!of_intervals} of canonical input
    are O(n).

    No-ops share: [add_range] of a covered range, [remove_range] of a
    disjoint one, [union s s], [union s empty], [inter s s] and
    [diff s empty] return their set argument physically unchanged, so
    callers can detect "no change" with [==].

    Equal sets may be shaped differently, so compare them with {!equal},
    never with polymorphic [=], [compare] or [Hashtbl.hash];
    {!intervals}, {!pp} and encodings built on them are canonical. *)

type t

val empty : t
val is_empty : t -> bool

val range : int -> int -> t
(** [range lo hi] is [{lo, ..., hi-1}]; empty if [hi <= lo]. *)

val singleton : int -> t
val add_range : int -> int -> t -> t
val remove_range : int -> int -> t -> t
val mem : int -> t -> bool

val union : t -> t -> t

val union_all : t list -> t
(** n-ary {!union}: folds every operand into the tallest one. *)

val inter : t -> t -> t
val diff : t -> t -> t

val equal : t -> t -> bool
val subset : t -> t -> bool
val disjoint : t -> t -> bool

val cardinal : t -> int
(** Number of integers (not intervals). *)

val interval_count : t -> int
val intervals : t -> (int * int) list
(** Sorted [(lo, hi)] pairs. *)

val of_intervals : (int * int) list -> t
(** Intervals may overlap and arrive in any order; O(n) when they are
    already sorted, disjoint and non-adjacent, O(n log n) otherwise. *)

val of_list : int list -> t
(** The listed integers, in any order and with repeats.  Sorts once and
    builds the tree once, O(n log n), so hot loops that collect
    per-instruction addresses accumulate a list and build once. *)

val choose : t -> int option
(** The smallest element, if any. *)

val fold_intervals : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> unit) -> t -> unit
(** Per-element iteration; beware of large ranges. *)

val elements : t -> int list
val pp : Format.formatter -> t -> unit

val put : Tracing.Binio.W.t -> t -> unit
val get : Tracing.Binio.R.t -> t
(** Checkpoint codec: the canonical interval list. *)
