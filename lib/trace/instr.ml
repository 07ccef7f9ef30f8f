type t =
  | Assign_const of Addr.t
  | Assign_unop of Addr.t * Addr.t
  | Assign_binop of Addr.t * Addr.t * Addr.t
  | Read of Addr.t
  | Malloc of { base : Addr.t; size : int }
  | Free of { base : Addr.t; size : int }
  | Taint_source of Addr.t
  | Untaint of Addr.t
  | Jump_via of Addr.t
  | Syscall_arg of Addr.t
  | Lock of Addr.t
  | Unlock of Addr.t
  | Fork of Tid.t
  | Join of Tid.t
  | Nop

let equal a b = Stdlib.( = ) a b
let compare a b = Stdlib.compare a b

let pp ppf = function
  | Assign_const x -> Format.fprintf ppf "%a := const" Addr.pp x
  | Assign_unop (x, a) -> Format.fprintf ppf "%a := op %a" Addr.pp x Addr.pp a
  | Assign_binop (x, a, b) ->
    Format.fprintf ppf "%a := %a op %a" Addr.pp x Addr.pp a Addr.pp b
  | Read a -> Format.fprintf ppf "read %a" Addr.pp a
  | Malloc { base; size } -> Format.fprintf ppf "malloc %a %d" Addr.pp base size
  | Free { base; size } -> Format.fprintf ppf "free %a %d" Addr.pp base size
  | Taint_source x -> Format.fprintf ppf "taint %a" Addr.pp x
  | Untaint x -> Format.fprintf ppf "untaint %a" Addr.pp x
  | Jump_via x -> Format.fprintf ppf "jump_via %a" Addr.pp x
  | Syscall_arg x -> Format.fprintf ppf "syscall_arg %a" Addr.pp x
  | Lock m -> Format.fprintf ppf "lock %a" Addr.pp m
  | Unlock m -> Format.fprintf ppf "unlock %a" Addr.pp m
  | Fork u -> Format.fprintf ppf "fork %a" Tid.pp u
  | Join u -> Format.fprintf ppf "join %a" Tid.pp u
  | Nop -> Format.fprintf ppf "nop"

let to_string i = Format.asprintf "%a" pp i

let reads = function
  | Assign_const _ | Malloc _ | Free _ | Taint_source _ | Untaint _ | Nop
  | Lock _ | Unlock _ | Fork _ | Join _ ->
    []
  | Assign_unop (_, a) -> [ a ]
  | Assign_binop (_, a, b) -> if Addr.equal a b then [ a ] else [ a; b ]
  | Read a -> [ a ]
  | Jump_via x -> [ x ]
  | Syscall_arg x -> [ x ]

let writes = function
  | Assign_const x | Assign_unop (x, _) | Assign_binop (x, _, _) -> Some x
  | Taint_source x | Untaint x -> Some x
  | Read _ | Malloc _ | Free _ | Jump_via _ | Syscall_arg _ | Nop | Lock _
  | Unlock _ | Fork _ | Join _ ->
    None

let accesses i =
  match writes i with
  | None -> reads i
  | Some x -> x :: List.filter (fun a -> not (Addr.equal a x)) (reads i)

let alloc_effect = function
  | Malloc { base; size } -> `Alloc (base, size)
  | Free { base; size } -> `Free (base, size)
  | Assign_const _ | Assign_unop _ | Assign_binop _ | Read _ | Taint_source _
  | Untaint _ | Jump_via _ | Syscall_arg _ | Nop | Lock _ | Unlock _ | Fork _
  | Join _ ->
    `None

(* Every data instruction reads or writes at least one location, so
   this is [accesses i <> []] for them without building the list. *)
let is_memory_event = function
  | Malloc _ | Free _ | Assign_const _ | Assign_unop _ | Assign_binop _
  | Read _ | Taint_source _ | Untaint _ | Jump_via _ | Syscall_arg _ ->
    true
  | Nop | Lock _ | Unlock _ | Fork _ | Join _ -> false

let taint_sink = function
  | Jump_via x | Syscall_arg x -> Some x
  | Assign_const _ | Assign_unop _ | Assign_binop _ | Read _ | Malloc _
  | Free _ | Taint_source _ | Untaint _ | Nop | Lock _ | Unlock _ | Fork _
  | Join _ ->
    None

let sync_effect = function
  | Lock m -> `Lock m
  | Unlock m -> `Unlock m
  | Fork u -> `Fork u
  | Join u -> `Join u
  | Assign_const _ | Assign_unop _ | Assign_binop _ | Read _ | Malloc _
  | Free _ | Taint_source _ | Untaint _ | Jump_via _ | Syscall_arg _ | Nop ->
    `None
