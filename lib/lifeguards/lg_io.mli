(** Serialization helper shared by the lifeguard kernels' checkpoint
    bodies. *)

val sorted_entries : (int, 'a) Hashtbl.t -> (int * 'a) list
(** Hashtable entries sorted by key — serialization must not depend on
    hash-bucket order. *)
