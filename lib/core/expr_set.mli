(** Sets of dynamic expressions, closed under the butterfly equations.

    A write to location [x] kills {e every} expression mentioning [x] — an
    infinite set online.  Because an expression mentions at most two
    locations, sets of the form "finitely many expressions, plus all
    expressions mentioning certain locations minus finitely many
    exceptions" are closed under union, intersection and difference (the
    intersection of two per-location wildcards is the single canonical
    binary expression over the two locations).  The representation is kept
    in a canonical normal form, so {!equal} is semantic. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Expr.t -> t
val of_list : Expr.t list -> t

val killing : Tracing.Addr.t -> t
(** All expressions mentioning the location: the KILL of a write to it. *)

val mem : Expr.t -> t -> bool
val union : t -> t -> t

val union_all : t list -> t
(** n-ary {!union} (folds pairwise). *)

val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool

val explicit : t -> Expr.Set.t
(** The finite (non-wildcard) part. *)

val wild_locations : t -> Tracing.Addr.t list
(** Locations with a wildcard portion, sorted. *)

val pp : Format.formatter -> t -> unit

val put : Tracing.Binio.W.t -> t -> unit
val get : Tracing.Binio.R.t -> t
(** Checkpoint codec. *)
