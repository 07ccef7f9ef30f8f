(** Epoch-structured executions and butterfly geometry.

    Splits a heartbeat-annotated program into the [epoch x thread] grid of
    blocks, padding threads that finished early with empty blocks, and
    answers the geometric questions of Figure 7: for a body block [(l, t)],
    which blocks form its head, tail and wings. *)

type t

val of_program : Tracing.Program.t -> t
(** Blocks are delimited by the heartbeats already present in each trace
    (insert them with {!Tracing.Program.with_heartbeats}).  A program whose
    traces contain no heartbeats yields a single epoch. *)

val of_blocks : Tracing.Instr.t array list array -> t
(** Per-thread block lists, for hand-built tests with staggered epoch
    boundaries. *)

val threads : t -> int
val num_epochs : t -> int

val block : t -> epoch:int -> tid:Tracing.Tid.t -> Block.t
(** Out-of-range epochs return an empty block: the grid is conceptually
    infinite in both directions, with no instructions outside the
    execution. *)

val head : t -> epoch:int -> tid:Tracing.Tid.t -> Block.t
(** [(l-1, t)]: already executed before the body. *)

val tail : t -> epoch:int -> tid:Tracing.Tid.t -> Block.t
(** [(l+1, t)]: executes after the body. *)

val wings : t -> epoch:int -> tid:Tracing.Tid.t -> Block.t list
(** Blocks [(l', t')] with [l-1 <= l' <= l+1] and [t' <> t]: potentially
    concurrent with the body. *)

val epoch_blocks : t -> epoch:int -> Block.t list
(** All blocks of one epoch, in thread order. *)

val iter_blocks : (Block.t -> unit) -> t -> unit
(** Visits blocks epoch-major, thread-minor. *)

val iter_rows : t -> (Tracing.Instr.t array array -> unit) -> unit
(** [iter_rows t f] calls [f] once per epoch, in order, with that epoch's
    row of instruction arrays indexed by tid — the unit the lifeguards'
    epoch-incremental engines consume. *)

val instr_count : t -> int
val pp : Format.formatter -> t -> unit
