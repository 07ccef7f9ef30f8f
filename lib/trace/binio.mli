(** Binary encoding primitives shared by the trace codec and the
    checkpoint snapshots ([lib/recovery]).

    Two layers:

    {ul
    {- {!W}/{!R}: a varint-based writer/reader pair for structured
       payloads (LEB128 unsigned varints, length-prefixed strings,
       counted lists).  The reader raises {!R.Corrupt} on any malformed
       input, so decoders fail loudly instead of misparsing.}
    {- {!frame}/{!unframe}: the durable envelope every persisted payload
       travels in — magic string, one format-version byte, the payload,
       and a CRC32 (IEEE 802.3) trailer over everything before it.
       Unframing rejects wrong magic, wrong version, truncation and any
       bit flip, each with a distinct, stable error message.}} *)

val crc32 : string -> int
(** CRC-32 (IEEE, reflected, init/xorout [0xffffffff]) of the whole
    string, as a non-negative int in [0, 2^32). *)

val crc32_sub : string -> pos:int -> len:int -> int
(** {!crc32} over [s.[pos .. pos+len-1]] without copying the slice.
    Raises [Invalid_argument] on an out-of-range window. *)

(** Append-only payload writer over a {!Buffer.t}. *)
module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val u8 : t -> int -> unit
  (** One byte; the value must be in [0, 255]. *)

  val varint : t -> int -> unit
  (** LEB128; the value must be non-negative. *)

  val sint : t -> int -> unit
  (** Zigzag-coded signed int.  The magnitude must fit once doubled
      (|n| <= max_int/2) — ample for addresses, epochs and indices. *)

  val bool : t -> bool -> unit
  val string : t -> string -> unit
  (** Varint length, then the raw bytes. *)

  val pair : t -> (t -> 'a -> unit) -> (t -> 'b -> unit) -> 'a * 'b -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Varint count, then each element. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
end

(** Payload reader; the exact dual of {!W}. *)
module R : sig
  type t

  exception Corrupt of string
  (** Raised on truncation, overlong varints, or invalid tags.  {!R}
      functions raise it; [decode]-style entry points catch it and
      return [Error]. *)

  val of_string : string -> t

  val of_substring : string -> pos:int -> len:int -> t
  (** A reader over the window [s.[pos .. pos+len-1]], sharing [s]
      (no copy).  Reads past the window raise {!Corrupt} exactly as
      reads past the end of a whole-string reader do.  Raises
      [Invalid_argument] on an out-of-range window. *)

  val pos : t -> int
  (** Current absolute offset into the underlying string. *)

  val remaining : t -> int
  (** Bytes left before the window's end. *)

  val u8 : t -> int
  val varint : t -> int
  val sint : t -> int
  val bool : t -> bool
  val string : t -> string
  val pair : t -> (t -> 'a) -> (t -> 'b) -> 'a * 'b
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option

  val expect_end : t -> unit
  (** Raises {!Corrupt} unless the whole input has been consumed. *)
end

val frame : magic:string -> version:int -> string -> string
(** [magic ^ version-byte ^ payload ^ crc32(all of the above)]. *)

val unframe_span :
  magic:string -> version:int -> string -> (int * int, string) result
(** Check magic, version and CRC in place and return the payload's
    [(pos, len)] within the envelope, copying nothing.  Errors:
    ["bad magic"], ["unsupported format version N (expected M)"],
    ["truncated envelope"], ["CRC mismatch: stored ..., computed ..."]. *)

val unframe : magic:string -> version:int -> string -> (string, string) result
(** {!unframe_span}, then a copy of the payload; the same errors. *)
