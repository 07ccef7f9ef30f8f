(** Dynamic instruction identifiers [(l, t, i)].

    A block is identified by its epoch [l] and thread [t]; an instruction by
    its offset [i] from the start of block [(l, t)] (Section 4.1). *)

type t = { epoch : int; tid : Tracing.Tid.t; index : int }

val make : epoch:int -> tid:Tracing.Tid.t -> index:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val put : Tracing.Binio.W.t -> t -> unit
val get : Tracing.Binio.R.t -> t
(** Checkpoint codec. *)

val strictly_before : sequential:bool -> t -> t -> bool
(** The strictly-before relation of Section 6.2: [(l,t,i) < (l',t',i')] iff
    [l <= l' - 2]; when [sequential] (i.e. the machine is sequentially
    consistent) additionally same-thread program order applies. *)

val potentially_concurrent : t -> t -> bool
(** Different threads and epochs within one of each other. *)
