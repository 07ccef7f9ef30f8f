(** Epoch rows out of a trace file's bytes, in either trace format.

    The one way a trace file reaches the lifeguard engines: the format
    is picked from the magic bytes, as {!Trace_codec.decode_binary} and
    {!Trace_codec.decode} would be picked.

    - A binary trace goes through {!Trace_codec.Cursor}: the buffer is
      validated and then walked in place, one epoch row at a time.
    - A text trace is decoded up front and re-chunked exactly as
      {!Trace_codec.Cursor.iter_rows} documents.

    Either way the rows equal those of [Epochs.of_program] over the
    decoded program (re-heartbeated with [Program.with_heartbeats ~every]
    when [every] is given), so the text and binary encodings of one trace
    give identical reports. *)

type t

val of_string : string -> (t, string) result
(** The decoder's stable error on malformed input. *)

val threads : t -> int

val num_rows : ?every:int -> t -> int
(** Epoch rows {!iter_rows} yields under the same chunking (always
    [>= 1]). *)

val iter_rows : ?every:int -> t -> (Instr.t array array -> unit) -> unit
(** [iter_rows ?every t f] calls [f] once per epoch row, in order; a row
    is indexed by tid.  Without [every], embedded heartbeats delimit
    epochs; with [~every:h] they are discarded and every thread is
    re-chunked every [h] instructions.  Threads that end early are
    padded with empty blocks.  Raises [Invalid_argument] if [h <= 0]. *)
