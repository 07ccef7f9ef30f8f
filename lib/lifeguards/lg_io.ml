module W = Tracing.Binio.W
module R = Tracing.Binio.R

let sorted_entries tbl =
  List.sort
    (fun (a, _) (b, _) -> compare (a : int) b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let put_rows w put tbl =
  W.list w
    (fun w (epoch, row) ->
      W.varint w epoch;
      W.array w put row)
    (sorted_entries tbl)

let get_rows r ~threads ~what get =
  let tbl = Hashtbl.create 64 in
  ignore
    (R.list r (fun r ->
         let epoch = R.varint r in
         let row = R.array r get in
         if Array.length row <> threads then
           raise (R.Corrupt (what ^ " row width mismatch"));
         Hashtbl.replace tbl epoch row));
  tbl
