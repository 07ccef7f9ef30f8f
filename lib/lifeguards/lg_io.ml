let sorted_entries tbl =
  List.sort
    (fun (a, _) (b, _) -> compare (a : int) b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
