(** Sets of dynamic definitions, closed under the butterfly equations.

    Killing a definition in reaching definitions means killing {e every}
    definition of a location — a set we cannot enumerate online.  Because a
    definition belongs to exactly one location, the per-location portion of
    a set is either a finite set of sites ([Pos]) or a cofinite one
    ([All_except]), and that two-valued algebra is closed under union,
    intersection and difference.  This gives an exact, finite representation
    for every set the framework computes (GEN, KILL, SOS, LSOS, IN, OUT and
    the spanning-epoch combinations of Section 5.1.1). *)

type t

val empty : t
val is_empty : t -> bool
(** [All_except] entries are treated as non-empty: the universe of
    definitions of a location is unbounded in an online analysis. *)

val singleton : Definition.t -> t
val of_list : Definition.t list -> t

val all_of_loc : Tracing.Addr.t -> t
(** Every definition of a location: what a write kills. *)

val all_of_loc_except : Tracing.Addr.t -> Instr_id.t -> t
(** Every definition of the location except the given site: the precise
    KILL of a write at that site. *)

val mem : Definition.t -> t -> bool

val defines_loc : Tracing.Addr.t -> t -> bool
(** Does the set contain at least one definition of the location?
    ([All_except] counts.) *)

val union : t -> t -> t

val union_all : t list -> t
(** n-ary {!union} (folds pairwise). *)

val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool

val sites_of_loc :
  Tracing.Addr.t -> t -> [ `None | `Sites of Definition.Site_set.t
                         | `All_except of Definition.Site_set.t ]

val locations : t -> Tracing.Addr.t list
(** Locations with a non-empty portion, sorted. *)

val pp : Format.formatter -> t -> unit

val put : Tracing.Binio.W.t -> t -> unit
val get : Tracing.Binio.R.t -> t
(** Checkpoint codec. *)
