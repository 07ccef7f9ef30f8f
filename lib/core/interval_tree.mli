(** The balanced interval tree behind {!Interval_set}.

    {!Interval_set} is this module sealed behind its historic signature;
    use that.  This interface exists so tests can check the tree's
    invariants ({!check}, {!height}) on the very code that serves the
    lifeguards.  Complexities are documented on {!Interval_set}. *)

type t

val empty : t
val is_empty : t -> bool
val range : int -> int -> t
val singleton : int -> t
val add_range : int -> int -> t -> t
val remove_range : int -> int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val union_all : t list -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val cardinal : t -> int
val interval_count : t -> int
val intervals : t -> (int * int) list
val of_intervals : (int * int) list -> t
val of_list : int list -> t
val choose : t -> int option
val fold_intervals : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> unit) -> t -> unit
val elements : t -> int list
val pp : Format.formatter -> t -> unit

val height : t -> int
(** Height of the tree; 0 for {!empty}. *)

val check : t -> (unit, string) result
(** Verify every structural invariant: intervals non-empty, in order,
    disjoint and non-adjacent; sibling heights within 2 of each other;
    cached heights exact.  [Error] names the first offending interval. *)
