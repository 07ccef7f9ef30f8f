(** Textual serialization of programs (multi-threaded traces).

    The format is line-oriented; each non-blank, non-comment line is
    [<tid> <mnemonic> <operands...>]:

    {v
    # comment
    threads 2
    0 malloc 0x100 64
    0 binop 0x10 0x100 0x104
    1 read 0x100
    0 heartbeat
    v}

    A [threads N] directive declares the thread count (needed when a
    thread's trace is empty).  Mnemonics: [assign x], [unop x a], [binop x a b], [read a],
    [malloc base size], [free base size], [taint x], [untaint x],
    [jump x], [sysarg x], [nop], [heartbeat].

    This is the trace tooling the paper's LBA hardware provided; here it
    lets externally generated traces be fed to the analyses and lets
    workload traces be inspected and persisted. *)

val encode : Program.t -> string
val encode_to_channel : out_channel -> Program.t -> unit

val decode : string -> (Program.t, string) result
(** Returns [Error msg] with a 1-based line number on malformed input. *)

val decode_file : string -> (Program.t, string) result

val roundtrip_exn : Program.t -> Program.t
(** [decode (encode p)], raising [Failure] on codec disagreement; used by
    tests. *)

(** {1 Binary format}

    A compact varint-encoded format for large traces (the text format costs
    ~20 bytes/event; the binary one 2–6).  Since format version 2 the
    encoding travels in a {!Binio} envelope — magic ["BFLY"], a version
    byte, the payload (varint thread count, then per thread a varint event
    count followed by events: opcode byte + varint operands) and a CRC32
    trailer — so truncation, bit flips and version skew are rejected with
    stable error messages instead of being misparsed.  Legacy version-1
    traces (prefix ["BFLY1"], no checksum) are still decoded. *)

val binary_magic : string
val binary_version : int

val encode_binary : Program.t -> string
val decode_binary : string -> (Program.t, string) result
val binary_roundtrip_exn : Program.t -> Program.t

(** {1 Event-level binary codec}

    The per-event encoding of the binary format, exposed for other
    persisted payloads that embed instructions — the checkpoint snapshots
    of [lib/recovery] reuse it for serialized blocks. *)

val put_instr : Binio.W.t -> Instr.t -> unit
val read_instr : Binio.R.t -> Instr.t
(** Raises {!Binio.R.Corrupt} on a malformed or heartbeat opcode. *)

val put_event : Binio.W.t -> Event.t -> unit
val read_event : Binio.R.t -> Event.t

(** {1 Zero-copy cursor}

    In-place walk over a binary trace buffer: the envelope is validated
    without copying the payload ({!Binio.crc32_sub} over the original
    string), thread event regions are located in one validating scan,
    and instruction rows are then decoded epoch-by-epoch straight out of
    the buffer — no [Program.t], no per-thread event lists, no second
    copy of the trace.  {!Row_source} walks every binary trace file
    through it: rows feed the lifeguards' engines directly, so peak
    memory is one epoch row instead of the whole decoded program.

    The cursor accepts exactly the inputs {!decode_binary} accepts
    (including legacy ["BFLY1"] traces) and rejects exactly the inputs
    it rejects, with the same error messages — fuzz-tested in
    [test/test_tracing.ml]. *)
module Cursor : sig
  type t

  val of_string : string -> (t, string) result
  (** Validate the envelope and scan the payload.  O(size) time, O(1)
      extra space beyond the cursor record; the buffer is retained by
      reference. *)

  val threads : t -> int
  val instr_count : t -> int

  val num_rows : ?every:int -> t -> int
  (** Number of epoch rows {!iter_rows} will yield (always ≥ 1). *)

  val iter_rows : ?every:int -> t -> (Instr.t array array -> unit) -> unit
  (** [iter_rows ?every c f] calls [f] once per epoch row (a per-tid
      array of instruction arrays), in order.  Without [every], embedded
      heartbeats delimit epochs exactly like [Trace.blocks] (k
      separators yield k+1 blocks); with [~every:h], embedded heartbeats
      are discarded and the instruction stream re-chunked every [h]
      instructions exactly like [Trace.with_heartbeats] (floor(n/h)+1
      blocks, the last one empty when [h] divides [n]).  Shorter threads
      are padded with empty blocks like [Epochs.of_blocks].  The rows
      are therefore identical to
      [Epochs.of_program (decode_binary ...)] under the same chunking —
      property-tested in [test/test_tracing.ml]. *)
end
