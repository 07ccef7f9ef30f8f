(** Protocol driver for talking to a {!Daemon}.

    Used by the [butterfly client] subcommand, the test batteries and
    the serve bench.  The client owns the epoch chunking: it computes
    the same epoch rows the batch CLI feeds its engine (the subcommand
    reads them with {!Tracing.Row_source.iter_rows}) and ships each row
    as one DATA chunk, so the daemon's feed sequence — and therefore its
    report — matches the batch run byte for byte. *)

val chunk_of_row : Tracing.Instr.t array array -> string
(** One epoch row as a standalone binary trace (the body of a DATA
    frame).  The daemon's cursor walk over it yields exactly this row. *)

val run_tenant :
  socket:string ->
  ?retries:int ->
  ?write_chunk:int ->
  hello:Wire.hello ->
  Tracing.Instr.t array array array ->
  (int * string, string) result
(** Full session: HELLO, one DATA per epoch row starting at the
    daemon's [resumed_from] frontier, FIN, REPORT.  Returns
    [(resumed_from, report_json)].  [write_chunk] caps every socket
    write to that many bytes — [~write_chunk:3] shreds frames across
    reads, which is how the torn-frame battery exercises reassembly
    over a real socket.  [retries] paces connection attempts (20 ms
    apart, default 100) while the daemon is still booting.  Errors are
    the daemon's stable [ERROR] strings, or
    ["connection closed by daemon"] / ["connection lost: _"] when the
    stream dies mid-flight (the crash battery's signal to reconnect). *)

val status : socket:string -> ?retries:int -> unit -> (string, string) result
(** The out-of-band STATUS query: session cards plus the daemon's
    Prometheus rendering, as one JSON object. *)
