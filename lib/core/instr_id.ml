type t = { epoch : int; tid : Tracing.Tid.t; index : int }

let make ~epoch ~tid ~index = { epoch; tid; index }
let equal a b = a = b

let compare a b =
  match Int.compare a.epoch b.epoch with
  | 0 -> (
    match Tracing.Tid.compare a.tid b.tid with
    | 0 -> Int.compare a.index b.index
    | c -> c)
  | c -> c

let hash = Hashtbl.hash
let pp ppf { epoch; tid; index } = Format.fprintf ppf "(%d,%d,%d)" epoch tid index
let to_string t = Format.asprintf "%a" pp t

let put w t =
  Tracing.Binio.W.sint w t.epoch;
  Tracing.Binio.W.varint w t.tid;
  Tracing.Binio.W.varint w t.index

let get r =
  let epoch = Tracing.Binio.R.sint r in
  let tid = Tracing.Binio.R.varint r in
  let index = Tracing.Binio.R.varint r in
  { epoch; tid; index }

let strictly_before ~sequential a b =
  a.epoch <= b.epoch - 2
  || sequential
     && Tracing.Tid.equal a.tid b.tid
     && (a.epoch < b.epoch || (a.epoch = b.epoch && a.index < b.index))

let potentially_concurrent a b =
  (not (Tracing.Tid.equal a.tid b.tid)) && abs (a.epoch - b.epoch) <= 1
