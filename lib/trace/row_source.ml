type t = Binary of Trace_codec.Cursor.t | Text of Program.t

let of_string s =
  let m = Trace_codec.binary_magic in
  if String.starts_with ~prefix:m s then
    Result.map (fun c -> Binary c) (Trace_codec.Cursor.of_string s)
  else Result.map (fun p -> Text p) (Trace_codec.decode s)

let threads = function
  | Binary c -> Trace_codec.Cursor.threads c
  | Text p -> Program.threads p

(* Per-thread blocks of a decoded program under one chunking. *)
let text_blocks ?every p =
  Array.map
    (fun tr ->
      let tr =
        match every with
        | None -> tr
        | Some h -> Trace.with_heartbeats ~every:h tr
      in
      Array.of_list (Trace.blocks tr))
    (Program.traces p)

let rows_of_blocks blocks =
  Array.fold_left (fun m bs -> max m (Array.length bs)) 1 blocks

let num_rows ?every = function
  | Binary c -> Trace_codec.Cursor.num_rows ?every c
  | Text p -> rows_of_blocks (text_blocks ?every p)

let iter_rows ?every t f =
  match t with
  | Binary c -> Trace_codec.Cursor.iter_rows ?every c f
  | Text p ->
    let blocks = text_blocks ?every p in
    for l = 0 to rows_of_blocks blocks - 1 do
      f
        (Array.map
           (fun bs -> if l < Array.length bs then bs.(l) else [||])
           blocks)
    done
