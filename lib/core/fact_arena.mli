(** Flat-state fact tables: word-addressed bitsets and mutable arenas.

    The lifeguards' functional fact structures ({!Interval_set},
    [Set.Make (Int)]) are the reference semantics; this module provides
    the raw-speed twin selected by [--state flat].  A {!Bitset.t} covers
    a contiguous run of 64-bit words of the (conceptually infinite,
    zero-extended) address-indexed bit vector, so per-block GEN/KILL
    meets and joins process 64 addresses per machine word instead of one
    element per fold step.  {!Dense} is the mutable construction arena:
    geometric growth, in-place (allocation-free once grown) set algebra,
    and [freeze] to cut an immutable canonical bitset.

    Only non-negative addresses are representable; constructors raise
    [Invalid_argument] on negative input rather than misfiling it.

    Telemetry: [state.arena.bytes] (bytes of arena backing store
    allocated) and [state.arena.grows] (geometric regrow events), both
    counters under [backend=flat]. *)

(** Immutable canonical bitset.  Canonical form — zero words trimmed
    from both ends, the empty set uniquely represented — makes
    structural {!Bitset.equal} coincide with semantic set equality,
    which the flat/functional differential battery relies on.

    The API mirrors the slices of {!Interval_set} and [Set.Make (Int)]
    that the lifeguards use, so one functor body serves both
    representations. *)
module Bitset : sig
  type t = private { off : int; bits : Bytes.t }
  (** Words [off, off + Bytes.length bits / 8) of the bit vector.
      Exposed read-only for {!Dense} and the white-box canonicity
      tests; never construct directly. *)

  val empty : t
  val is_empty : t -> bool

  val range : int -> int -> t
  (** [range lo hi] is [{lo, ..., hi - 1}]; empty if [hi <= lo]. *)

  val singleton : int -> t
  val add : int -> t -> t
  val mem : int -> t -> bool

  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  val equal : t -> t -> bool
  (** Structural, and by canonicity semantic, equality. *)

  val disjoint : t -> t -> bool
  val subset : t -> t -> bool

  val cardinal : t -> int
  val iter : (int -> unit) -> t -> unit
  (** Ascending order. *)

  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> int list
  (** Sorted ascending, like [Set.Make(Int).elements]. *)

  val choose : t -> int option
  (** The smallest element, if any. *)

  val of_list : int list -> t
  val union_all : t list -> t
  val to_intervals : t -> Interval_set.t
  val of_intervals : Interval_set.t -> t
  val pp : Format.formatter -> t -> unit
end

(** Mutable scratch arena rooted at address 0.  Not thread-safe: each
    pool worker builds into its own arena. *)
module Dense : sig
  type t

  val create : ?capacity_bits:int -> unit -> t
  (** Default capacity 512 bits.  Allocation is counted in
      [state.arena.bytes]. *)

  val capacity_bits : t -> int

  val set : t -> int -> unit
  (** Grows geometrically when the address exceeds capacity (counted in
      [state.arena.grows]).  Raises [Invalid_argument] on a negative
      address. *)

  val unset : t -> int -> unit
  val get : t -> int -> bool

  val clear : t -> unit
  (** Zero every bit, keeping capacity (reuse-after-clear). *)

  val union_into : t -> Bitset.t -> unit
  (** In-place [t := t ∪ b]; grows only if [b] exceeds capacity. *)

  val inter_into : t -> Bitset.t -> unit
  (** In-place [t := t ∩ b]; never grows, never allocates. *)

  val diff_into : t -> Bitset.t -> unit
  (** In-place [t := t − b]; never grows, never allocates. *)

  val freeze : t -> Bitset.t
  (** Canonical immutable copy of the current contents. *)
end

(** The fact-set operations a lifeguard body is generic over:
    {!Dataflow.SET} plus the range constructors and queries its transfer
    functions and reports need.  Reports convert through
    {!Interval_set.t} ([to_intervals]) so rendered fingerprints are
    representation-independent. *)
module type FACTS = sig
  include Dataflow.SET

  val range : int -> int -> t
  val singleton : int -> t
  val mem : int -> t -> bool
  val disjoint : t -> t -> bool
  val subset : t -> t -> bool
  val cardinal : t -> int

  val of_list : int list -> t
  (** Equals folding {!singleton} unions, but both backends build the
      result once (the flat one in one buffer, the functional one as a
      balanced tree from the sorted runs), so hot loops that collect
      per-instruction addresses should accumulate a list and build once. *)

  val union_all : t list -> t
  (** n-ary {!union}; the flat backend allocates the result once, the
      functional one unions into its tallest (so roughly largest) operand. *)

  val to_intervals : t -> Interval_set.t
  val of_intervals : Interval_set.t -> t
end

module Interval_facts : FACTS with type t = Interval_set.t
(** The functional reference backend. *)

module Bitset_facts : FACTS with type t = Bitset.t
(** The flat backend. *)
