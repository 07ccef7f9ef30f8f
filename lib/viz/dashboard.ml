type event = {
  kind : string;
  name : string;
  labels : (string * string) list;
  v : float;
  t_ns : float;
  epoch : int option;
  tid : int option;
  phase : string option;
}

(* ------------------------------------------------------------------ *)
(* JSONL parsing                                                       *)

let num = function
  | Obs.Json.Int n -> Some (float_of_int n)
  | Obs.Json.Float f -> Some f
  | _ -> None

let parse_line line =
  if String.trim line = "" then Error "empty line"
  else
    match Obs.Json.of_string line with
    | Error m -> Error m
    | Ok (Obs.Json.Obj fields) -> (
      let get k = List.assoc_opt k fields in
      let str k = match get k with Some (Obs.Json.String s) -> Some s | _ -> None in
      match (str "kind", str "name", Option.bind (get "v") num) with
      | Some kind, Some name, Some v ->
        let labels =
          match get "labels" with
          | Some (Obs.Json.Obj ls) ->
            List.filter_map
              (fun (k, j) ->
                match j with Obs.Json.String s -> Some (k, s) | _ -> None)
              ls
          | _ -> []
        in
        let t_ns = Option.value ~default:0. (Option.bind (get "t_ns") num) in
        let scope k =
          match get "scope" with
          | Some (Obs.Json.Obj s) -> List.assoc_opt k s
          | _ -> None
        in
        let scope_int k =
          match scope k with Some (Obs.Json.Int n) -> Some n | _ -> None
        in
        let phase =
          match scope "phase" with Some (Obs.Json.String s) -> Some s | _ -> None
        in
        Ok
          {
            kind;
            name;
            labels;
            v;
            t_ns;
            epoch = scope_int "epoch";
            tid = scope_int "tid";
            phase;
          }
      | _ -> Error "not an obs event (kind/name/v missing)")
    | Ok _ -> Error "not a JSON object"

let parse_events contents =
  let bad = ref 0 in
  let events =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun l ->
           match parse_line l with
           | Ok e -> Some e
           | Error _ ->
             incr bad;
             None)
  in
  (events, !bad)

(* ------------------------------------------------------------------ *)
(* Formatting                                                          *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fmt_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f µs" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let fmt_bytes b =
  if b < 1024. then Printf.sprintf "%.0f B" b
  else if b < 1024. *. 1024. then Printf.sprintf "%.1f KiB" (b /. 1024.)
  else Printf.sprintf "%.1f MiB" (b /. (1024. *. 1024.))

let fmt_count v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

(* ------------------------------------------------------------------ *)
(* SVG charts                                                          *)

(* All charts are single-series (categorical slot 1), so no legend box:
   the card title names the series.  Tooltips are native SVG <title>
   elements — no script. *)

let chart_w = 560.
let chart_h = 200.
let pad_l = 56.
let pad_r = 12.
let pad_t = 10.
let pad_b = 26.

let plot_w = chart_w -. pad_l -. pad_r
let plot_h = chart_h -. pad_t -. pad_b

let svg_open b =
  Printf.ksprintf (Buffer.add_string b)
    "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" \
     xmlns=\"http://www.w3.org/2000/svg\">\n"
    chart_w chart_h

let gridlines b ~vmax ~fmt =
  for i = 0 to 4 do
    let frac = float_of_int i /. 4. in
    let y = pad_t +. plot_h -. (frac *. plot_h) in
    if i > 0 then
      Printf.ksprintf (Buffer.add_string b)
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
         stroke=\"var(--gridline)\" stroke-width=\"1\"/>\n"
        pad_l y (pad_l +. plot_w) y;
    Printf.ksprintf (Buffer.add_string b)
      "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\" class=\"tick\">%s</text>\n"
      (pad_l -. 6.) (y +. 3.)
      (html_escape (fmt (frac *. vmax)))
  done;
  (* baseline *)
  Printf.ksprintf (Buffer.add_string b)
    "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
     stroke=\"var(--baseline)\" stroke-width=\"1\"/>\n"
    pad_l (pad_t +. plot_h) (pad_l +. plot_w) (pad_t +. plot_h)

(* Nice axis ceiling: 1/2/5 x 10^k at or above v. *)
let nice_max v =
  if v <= 0. then 1.
  else
    let e = Float.of_int (int_of_float (Float.floor (Float.log10 v))) in
    let base = Float.pow 10. e in
    let m = v /. base in
    if m <= 1. then base
    else if m <= 2. then 2. *. base
    else if m <= 5. then 5. *. base
    else 10. *. base

let bar_chart ~x_title ~fmt ~tooltip bars =
  let b = Buffer.create 2048 in
  svg_open b;
  let vmax = nice_max (List.fold_left (fun a (_, v) -> Float.max a v) 0. bars) in
  gridlines b ~vmax ~fmt;
  let n = List.length bars in
  let slot = plot_w /. float_of_int (max 1 n) in
  let bw = Float.max 2. (Float.min 28. (slot -. 2.)) in
  List.iteri
    (fun i (label, v) ->
      let x = pad_l +. (float_of_int i *. slot) +. ((slot -. bw) /. 2.) in
      let h = v /. vmax *. plot_h in
      let y = pad_t +. plot_h -. h in
      (* 2px-radius rounded data end, squared at the baseline: draw the
         rect slightly taller and clip at the baseline via a path.  A
         plain rx rect rounds both ends; acceptable only when h > rx. *)
      Printf.ksprintf (Buffer.add_string b)
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" \
         fill=\"var(--series-1)\"><title>%s</title></rect>\n"
        x y bw (Float.max 1. h)
        (html_escape (tooltip label v));
      (* x tick labels, thinned to at most ~12 *)
      let every = max 1 (n / 12) in
      if i mod every = 0 then
        Printf.ksprintf (Buffer.add_string b)
          "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" \
           class=\"tick\">%s</text>\n"
          (x +. (bw /. 2.))
          (pad_t +. plot_h +. 14.)
          (html_escape label))
    bars;
  Printf.ksprintf (Buffer.add_string b)
    "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" class=\"axis\">%s</text>\n"
    (pad_l +. (plot_w /. 2.))
    (chart_h -. 2.) (html_escape x_title);
  Buffer.add_string b "</svg>\n";
  Buffer.contents b

let line_chart ~x_title ~fmt ~tooltip points =
  let b = Buffer.create 2048 in
  svg_open b;
  let xmin = List.fold_left (fun a (x, _) -> Float.min a x) infinity points in
  let xmax = List.fold_left (fun a (x, _) -> Float.max a x) neg_infinity points in
  let vmax = nice_max (List.fold_left (fun a (_, v) -> Float.max a v) 0. points) in
  gridlines b ~vmax ~fmt;
  let xspan = if xmax > xmin then xmax -. xmin else 1. in
  let px x = pad_l +. ((x -. xmin) /. xspan *. plot_w) in
  let py v = pad_t +. plot_h -. (v /. vmax *. plot_h) in
  let path =
    String.concat " "
      (List.mapi
         (fun i (x, v) ->
           Printf.sprintf "%s%.1f,%.1f" (if i = 0 then "M" else "L") (px x) (py v))
         points)
  in
  Printf.ksprintf (Buffer.add_string b)
    "<path d=\"%s\" fill=\"none\" stroke=\"var(--series-1)\" \
     stroke-width=\"2\" stroke-linejoin=\"round\"/>\n"
    path;
  (* Hover targets: invisible fat circles carrying the tooltip, plus a
     small visible marker. *)
  List.iter
    (fun (x, v) ->
      Printf.ksprintf (Buffer.add_string b)
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3\" fill=\"var(--series-1)\"/>\n"
        (px x) (py v);
      Printf.ksprintf (Buffer.add_string b)
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"8\" fill=\"transparent\">\
         <title>%s</title></circle>\n"
        (px x) (py v)
        (html_escape (tooltip x v)))
    points;
  Printf.ksprintf (Buffer.add_string b)
    "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" class=\"axis\">%s</text>\n"
    (pad_l +. (plot_w /. 2.))
    (chart_h -. 2.) (html_escape x_title);
  Buffer.add_string b "</svg>\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Series extraction                                                   *)

let sum_by_epoch events ~kind ~name =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if e.kind = kind && e.name = name then
        match e.epoch with
        | Some l ->
          Hashtbl.replace tbl l (e.v +. Option.value ~default:0. (Hashtbl.find_opt tbl l))
        | None -> ())
    events;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total events ~kind ~name =
  List.fold_left
    (fun acc e -> if e.kind = kind && e.name = name then acc +. e.v else acc)
    0. events

let series events ~kind ~name =
  List.filter_map
    (fun e -> if e.kind = kind && e.name = name then Some (e.t_ns, e.v) else None)
    events

(* ------------------------------------------------------------------ *)
(* Page                                                                *)

let style =
  {css|
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
}
header h1 { font-size: 20px; margin: 0 0 4px; }
header p { color: var(--ink-2); margin: 0 0 20px; font-size: 13px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.cards { display: grid; grid-template-columns: repeat(auto-fit, minmax(320px, 1fr)); gap: 16px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px;
}
.card h2 { font-size: 14px; margin: 0 0 2px; }
.card .sub { font-size: 12px; color: var(--ink-2); margin: 0 0 10px; }
.card svg { width: 100%; height: auto; display: block; }
.card .empty { color: var(--muted); font-size: 13px; padding: 32px 0; text-align: center; }
svg text { fill: var(--muted); font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .tick { font-size: 9px; font-variant-numeric: tabular-nums; }
svg .axis { font-size: 10px; fill: var(--ink-2); }
footer { margin-top: 20px; color: var(--muted); font-size: 12px; }
|css}

let card b ~title ~sub body =
  Printf.ksprintf (Buffer.add_string b)
    "<div class=\"card\"><h2>%s</h2><p class=\"sub\">%s</p>%s</div>\n"
    (html_escape title) (html_escape sub) body

let empty_card = "<p class=\"empty\">no data in this stream</p>"

let tile b ~value ~label =
  Printf.ksprintf (Buffer.add_string b)
    "<div class=\"tile\"><div class=\"v\">%s</div><div class=\"k\">%s</div></div>\n"
    (html_escape value) (html_escape label)

let render ?(title = "Butterfly run") ?refresh events =
  let b = Buffer.create 16384 in
  Buffer.add_string b "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  Buffer.add_string b "<meta charset=\"utf-8\"/>\n";
  Buffer.add_string b
    "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\"/>\n";
  (match refresh with
  | Some n ->
    Printf.ksprintf (Buffer.add_string b)
      "<meta http-equiv=\"refresh\" content=\"%d\"/>\n" n
  | None -> ());
  Printf.ksprintf (Buffer.add_string b) "<title>%s</title>\n" (html_escape title);
  Printf.ksprintf (Buffer.add_string b) "<style>%s</style>\n" style;
  Buffer.add_string b "</head>\n<body>\n";

  let t0 =
    List.fold_left (fun a e -> Float.min a e.t_ns) infinity events
  in
  let t1 =
    List.fold_left (fun a e -> Float.max a e.t_ns) neg_infinity events
  in
  let epochs_seen =
    List.fold_left
      (fun a e -> match e.epoch with Some l -> max a (l + 1) | None -> a)
      0 events
  in
  Printf.ksprintf (Buffer.add_string b)
    "<header><h1>%s</h1><p>%d events%s%s</p></header>\n" (html_escape title)
    (List.length events)
    (if events = [] then "" else Printf.sprintf " over %s" (fmt_ns (t1 -. t0)))
    (if epochs_seen > 0 then Printf.sprintf " · %d epochs" epochs_seen else "");

  (* --- stat tiles ------------------------------------------------- *)
  let checks = total events ~kind:"add" ~name:"lifeguard.checks" in
  let flags = total events ~kind:"add" ~name:"lifeguard.flags" in
  let rechecks = total events ~kind:"add" ~name:"lifeguard.phase2_rechecks" in
  let ckpts = total events ~kind:"add" ~name:"recovery.checkpoints" in
  Buffer.add_string b "<div class=\"tiles\">\n";
  if epochs_seen > 0 then tile b ~value:(string_of_int epochs_seen) ~label:"epochs";
  tile b ~value:(fmt_count checks) ~label:"checks resolved";
  tile b ~value:(fmt_count flags) ~label:"errors flagged";
  if checks > 0. then
    tile b
      ~value:(Printf.sprintf "%.1f%%" (100. *. rechecks /. checks))
      ~label:"phase-2 recheck rate";
  if ckpts > 0. then tile b ~value:(fmt_count ckpts) ~label:"checkpoints";
  Buffer.add_string b "</div>\n";

  Buffer.add_string b "<div class=\"cards\">\n";

  (* --- per-epoch pass-2 latency ----------------------------------- *)
  let lat = sum_by_epoch events ~kind:"observe" ~name:"butterfly.pass2_block.ns" in
  card b ~title:"Pass-2 latency by epoch"
    ~sub:"sum of butterfly.pass2_block.ns per uncertainty epoch"
    (if lat = [] then empty_card
     else
       bar_chart ~x_title:"epoch" ~fmt:fmt_ns
         ~tooltip:(fun l v -> Printf.sprintf "epoch %s: %s" l (fmt_ns v))
         (List.map (fun (l, v) -> (string_of_int l, v)) lat));

  (* --- pool utilization ------------------------------------------- *)
  let util = series events ~kind:"set" ~name:"pool.utilization" in
  card b ~title:"Domain-pool utilization"
    ~sub:"pool.utilization gauge over the run"
    (if util = [] then empty_card
     else
       line_chart ~x_title:"ms since start"
         ~fmt:(fun v -> Printf.sprintf "%.0f%%" v)
         ~tooltip:(fun x v -> Printf.sprintf "+%.1f ms: %.0f%% busy" x v)
         (List.map (fun (t, v) -> ((t -. t0) /. 1e6, v *. 100.)) util));

  (* --- phase-2 rechecks per epoch ---------------------------------- *)
  let p2 = sum_by_epoch events ~kind:"add" ~name:"lifeguard.phase2_rechecks" in
  card b ~title:"Phase-2 rechecks by epoch"
    ~sub:"Lemma 6.3 second-phase resolutions (lifeguard.phase2_rechecks)"
    (if p2 = [] then empty_card
     else
       bar_chart ~x_title:"epoch" ~fmt:fmt_count
         ~tooltip:(fun l v -> Printf.sprintf "epoch %s: %s rechecks" l (fmt_count v))
         (List.map (fun (l, v) -> (string_of_int l, v)) p2));

  (* --- checkpoint cadence ------------------------------------------ *)
  let ckpt_events =
    List.filter (fun e -> e.kind = "add" && e.name = "recovery.checkpoints") events
  in
  let bytes_by_epoch = sum_by_epoch events ~kind:"add" ~name:"recovery.bytes" in
  card b ~title:"Checkpoint cadence"
    ~sub:"recovery.checkpoints: interval between consecutive snapshots"
    (if List.length ckpt_events < 1 then empty_card
     else
       let times = List.map (fun e -> e.t_ns) ckpt_events in
       let bars =
         List.mapi
           (fun i t ->
             let prev = if i = 0 then t0 else List.nth times (i - 1) in
             (string_of_int (i + 1), t -. prev))
           times
       in
       bar_chart ~x_title:"checkpoint #" ~fmt:fmt_ns
         ~tooltip:(fun l v -> Printf.sprintf "checkpoint %s after %s" l (fmt_ns v))
         bars);

  (* --- checkpoint sizes, when scoped ------------------------------- *)
  if bytes_by_epoch <> [] then
    card b ~title:"Checkpoint size by epoch"
      ~sub:"recovery.bytes written per checkpointed epoch"
      (bar_chart ~x_title:"epoch" ~fmt:fmt_bytes
         ~tooltip:(fun l v -> Printf.sprintf "epoch %s: %s" l (fmt_bytes v))
         (List.map (fun (l, v) -> (string_of_int l, v)) bytes_by_epoch));

  Buffer.add_string b "</div>\n";
  Buffer.add_string b
    "<footer>rendered from an obs JSONL stream — butterfly analysis \
     introspection</footer>\n";
  Buffer.add_string b "</body>\n</html>\n";
  Buffer.contents b
