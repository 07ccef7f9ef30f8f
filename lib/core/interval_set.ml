include Interval_tree

let put w t =
  Tracing.Binio.W.list w
    (fun w (lo, hi) ->
      Tracing.Binio.W.sint w lo;
      Tracing.Binio.W.sint w hi)
    (intervals t)

let get r =
  of_intervals
    (Tracing.Binio.R.list r (fun r ->
         let lo = Tracing.Binio.R.sint r in
         let hi = Tracing.Binio.R.sint r in
         (lo, hi)))
