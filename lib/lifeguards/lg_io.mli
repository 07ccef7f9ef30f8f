(** Serialization helpers shared by the lifeguard kernels' checkpoint
    bodies. *)

val sorted_entries : (int, 'a) Hashtbl.t -> (int * 'a) list
(** Hashtable entries sorted by key — serialization must not depend on
    hash-bucket order. *)

val put_rows :
  Tracing.Binio.W.t ->
  (Tracing.Binio.W.t -> 'a -> unit) ->
  (int, 'a array) Hashtbl.t ->
  unit
(** A per-epoch row table: a list of [(epoch, row)] entries in epoch
    order, each row an array of per-thread cells written by the given
    function. *)

val get_rows :
  Tracing.Binio.R.t ->
  threads:int ->
  what:string ->
  (Tracing.Binio.R.t -> 'a) ->
  (int, 'a array) Hashtbl.t
(** Inverse of {!put_rows}.  Raises
    [Tracing.Binio.R.Corrupt "<what> row width mismatch"] for a row that
    is not [threads] wide. *)
