(** The daemon's frame protocol.

    Every message on a serving connection is one {e frame}: a 4-byte
    big-endian body length followed by the body — a tag byte plus a
    {!Tracing.Binio} payload.  Length-prefixing makes the stream
    self-delimiting under arbitrary write boundaries: a client may dribble
    a frame one byte at a time, or coalesce ten frames into one write, and
    {!Reader} reassembles the same frame sequence either way (the
    torn-frame battery in [test/test_serve.ml] pins this).

    The conversation (client speaks first):

    {v
    client                          daemon
    ------                          ------
    HELLO (tenant, config) ------>
                           <------ HELLO_OK (resumed_from) | ERROR
    DATA (codec chunk)     ------>        (zero or more)
    FIN                    ------>
                           <------ REPORT (json) | ERROR
    v}

    plus the out-of-band status query: a connection may send [STATUS] at
    any point (even before HELLO) and receives [STATUS_OK] carrying the
    metric registry and per-tenant session stats.

    A DATA body is a complete {!Tracing.Trace_codec} binary trace — the
    envelope, CRC and all — holding one or more epochs of events
    (heartbeats separate epochs within a chunk); the daemon walks it with
    the zero-copy {!Tracing.Trace_codec.Cursor} and feeds the rows to the
    tenant's resumable engine. *)

type hello = {
  tenant : string;  (** session key; must satisfy {!Recovery.Snapshot.valid_tenant} *)
  lifeguard : Recovery.Snapshot.lifeguard;
  driver : [ `Sequential | `Pooled | `Wavefront ];
      (** [`Wavefront] names a retired schedule; old clients still send
          it and {!Session.create} runs it as [`Pooled] *)
  state : [ `Functional | `Flat ];
      (** fact-table backend; only [`Functional] remains, and
          {!Session.create} rejects [`Flat] *)
  relaxed : bool;  (** TaintCheck's relaxed-consistency termination *)
  threads : int;  (** application threads; every DATA row must match *)
}

type frame =
  | Hello of hello
  | Hello_ok of { resumed_from : int }
      (** epochs the daemon already holds for this tenant (fed plus
          queued, or a revived snapshot's frontier); the client must
          start sending at this epoch *)
  | Data of string
  | Fin
  | Report of string  (** the lifeguard's JSON report, one line *)
  | Error of string  (** stable, parseable rejection; the session ends *)
  | Status
  | Status_ok of string  (** JSON: per-tenant stats + Prometheus text *)

val protocol_version : int

val max_frame : int
(** Hard cap on a body's size (16 MiB): a corrupt length prefix is
    rejected before the daemon tries to buffer gigabytes. *)

val encode : frame -> string
(** Length prefix plus body. *)

val decode_body : string -> (frame, string) result
(** Decode one frame body (no length prefix).  Stable errors, all
    prefixed ["bad frame: "] — unknown tags, malformed payloads and
    trailing bytes are all rejected. *)

val pp : Format.formatter -> frame -> unit
(** One-line rendering for logs and tests (payloads elided to sizes). *)

(** Incremental frame reassembly over an arbitrarily chunked byte
    stream. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> string -> pos:int -> len:int -> unit
  (** Append raw bytes as they arrive from a socket. *)

  val next : t -> (frame option, string) result
  (** The next complete frame, [None] while the buffer holds only a
      partial one.  Errors are sticky — a reader that has rejected input
      (oversized length prefix, undecodable body) keeps returning the
      same error, because a framing error leaves no way to resynchronize
      the stream.  Stable errors: the {!decode_body} messages and
      ["oversized frame: N bytes (limit M)"]. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by complete frames. *)
end
