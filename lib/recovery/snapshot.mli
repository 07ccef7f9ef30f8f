(** Durable checkpoint snapshots.

    A snapshot is the envelope every checkpoint travels in on disk:
    {!Tracing.Binio.frame} (magic, format-version byte, CRC32 trailer)
    around a small metadata header and the lifeguard engine's raw state
    payload ({!Butterfly.Window.S.encode}).  The metadata is what restore
    needs to {e refuse} early with a precise message — resuming AddrCheck
    state into TaintCheck, or a 4-thread checkpoint against a 2-thread
    trace — before the payload is even parsed.

    Writes are atomic (temp file + rename): a crash mid-checkpoint leaves
    the previous snapshot intact, never a torn file. *)

(** {1 Lifeguards}

    The one place the lifeguards are enumerated: their names, the byte
    that identifies each in a snapshot header and in a daemon's HELLO
    frame, and {!all}.  Everything per-lifeguard beyond that — engine,
    renderers, QA battery — is one entry of the [Serve.Report] table. *)

type lifeguard = Addrcheck | Initcheck | Taintcheck | Racecheck

val lifeguard_to_string : lifeguard -> string
(** The CLI subcommand name: ["addrcheck"], ["initcheck"], ... *)

val all : lifeguard list
(** Every lifeguard, in byte order. *)

val lifeguard_to_byte : lifeguard -> int
(** 0 for AddrCheck through 3 for RaceCheck; stable across versions. *)

val lifeguard_of_byte : int -> lifeguard
(** Inverse of {!lifeguard_to_byte}.  Raises
    [Tracing.Binio.R.Corrupt "bad lifeguard tag N"] for any other byte. *)

type meta = {
  lifeguard : lifeguard;
  next_epoch : int;  (** epochs already folded in; resume feeds from here *)
  threads : int;
}

val magic : string
(** ["BFLYCKPT"]. *)

val version : int
(** The format-version byte; {!decode} refuses any other with
    ["unsupported format version N (expected M)"]. *)

val encode : meta -> string -> string
(** [encode meta payload] is the complete framed snapshot. *)

val decode : string -> (meta * string, string) result
(** Errors (stable): the {!Tracing.Binio.unframe} messages for a damaged
    envelope, or ["corrupt checkpoint metadata: _"] for a valid envelope
    with an unreadable header. *)

exception Write_error of string
(** A snapshot that could not be written; the message is stable:
    ["cannot write checkpoint PATH: REASON"]. *)

val write_file : path:string -> meta -> string -> int
(** Atomically persist a snapshot; returns the byte size written.
    Raises {!Write_error} when the file cannot be written (the previous
    snapshot at [path], if any, is left intact). *)

val read_file : path:string -> (meta * string, string) result
(** [Error _] also covers an unreadable/missing file
    (["cannot read checkpoint _: _"]). *)

(** {1 Session-keyed naming}

    The serving layer ([lib/serve]) persists one snapshot per tenant
    session in a state directory; the file name is derived from the
    tenant id and the lifeguard, so a reconnecting tenant (or a daemon
    restarted after a crash) finds its own snapshot and nobody else's.
    Tenant ids are validated before they ever reach the filesystem —
    {!session_path} refuses anything {!valid_tenant} refuses, which is
    also the admission check the daemon applies to HELLO frames. *)

val valid_tenant : string -> bool
(** 1–64 characters drawn from [A-Za-z0-9_-] — no separators, no dots,
    nothing a path could be traversed with. *)

val session_path : dir:string -> tenant:string -> lifeguard -> string
(** [dir/<tenant>.<lifeguard>.snap].  Raises [Invalid_argument] if
    [valid_tenant tenant] is [false]. *)
