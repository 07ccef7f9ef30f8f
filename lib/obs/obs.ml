type labels = (string * string) list

let canon_labels ls = List.sort compare ls

(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* Appends [s] to [b], escaped: runs of bytes that need no escape are
     copied whole, and only quotes, backslashes and control bytes are
     rewritten. *)
  let add_escaped b s =
    let n = String.length s in
    let start = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        if i > !start then Buffer.add_substring b s !start (i - !start);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char b "0123456789abcdef".[Char.code c land 15]);
        start := i + 1
      end
    done;
    if !start < n then Buffer.add_substring b s !start (n - !start)

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int v -> Buffer.add_string b (string_of_int v)
    | Float v -> Buffer.add_string b (float_repr v)
    | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          write b v)
        kvs;
      Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 256 in
    write b j;
    Buffer.contents b

  let pp ppf j = Format.pp_print_string ppf (to_string j)

  (* Recursive-descent parser, the inverse of [write].  Kept dependency-free
     for the same reason as the printer: obs must not tax the build. *)
  exception Parse of int * string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if peek () = Some c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let k = String.length lit in
      if !pos + k <= n && String.sub s !pos k = lit then (
        pos := !pos + k;
        v)
      else fail ("expected " ^ lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
            incr pos;
            Buffer.contents b
          | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* UTF-8 encode the code point (surrogate pairs untreated:
                 each half round-trips as its own 3-byte sequence). *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then (
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
              else (
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))));
              pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
          | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ()
    in
    let digits () =
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      digits ();
      let is_float = ref false in
      if peek () = Some '.' then (
        is_float := true;
        incr pos;
        digits ());
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if text = "" || text = "-" then fail "bad number";
      if !is_float then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ((k, v) :: acc)
            | Some '}' ->
              incr pos;
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements (v :: acc)
            | Some ']' ->
              incr pos;
              List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input after document";
      v
    with
    | v -> Ok v
    | exception Parse (p, m) -> Error (Printf.sprintf "byte %d: %s" p m)
end

(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  type value = Counter of int | Gauge of float | Histogram of histogram
  type entry = { name : string; labels : labels; value : value }
  type t = entry list

  let find ?labels t name =
    List.find_opt
      (fun e ->
        e.name = name
        &&
        match labels with
        | None -> true
        | Some ls -> e.labels = canon_labels ls)
      t
    |> Option.map (fun e -> e.value)

  let counter ?labels t name =
    match find ?labels t name with Some (Counter n) -> n | _ -> 0

  let gauge ?labels t name =
    match find ?labels t name with
    | Some (Gauge v) -> v
    | Some (Counter n) -> float_of_int n
    | _ -> 0.0

  let json_of_value = function
    | Counter n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
    | Gauge v -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
    | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.Float h.sum);
          ("min", Json.Float h.min);
          ("max", Json.Float h.max);
          ( "buckets",
            Json.List
              (List.map
                 (fun (ub, n) -> Json.List [ Json.Float ub; Json.Int n ])
                 h.buckets) );
        ]

  let to_json t =
    Json.List
      (List.map
         (fun e ->
           let base =
             [ ("name", Json.String e.name) ]
             @ (if e.labels = [] then []
                else
                  [
                    ( "labels",
                      Json.Obj
                        (List.map (fun (k, v) -> (k, Json.String v)) e.labels)
                    );
                  ])
           in
           match json_of_value e.value with
           | Json.Obj fields -> Json.Obj (base @ fields)
           | j -> Json.Obj (base @ [ ("value", j) ]))
         t)

  (* Prometheus text exposition.  Dots (the repo naming convention)
     become underscores; everything else obs names use is already legal. *)
  let prom_name name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let prom_escape v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let prom_num v =
    if Float.is_nan v then "NaN"
    else if v = Float.infinity then "+Inf"
    else if v = Float.neg_infinity then "-Inf"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let prom_labels ls =
    if ls = [] then ""
    else
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> prom_name k ^ "=\"" ^ prom_escape v ^ "\"") ls)
      ^ "}"

  let to_prometheus t =
    let b = Buffer.create 1024 in
    let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let name = prom_name e.name in
        let kind =
          match e.value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        if not (Hashtbl.mem typed name) then begin
          Hashtbl.add typed name ();
          Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
        end;
        match e.value with
        | Counter n ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" name (prom_labels e.labels) n)
        | Gauge v ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" name (prom_labels e.labels) (prom_num v))
        | Histogram h ->
          (* Buckets are disjoint [(ub, n in (ub/2, ub]])], ascending, and
             partition the observations — the running sum is exactly the
             cumulative [le] series Prometheus expects. *)
          let cum = ref 0 in
          List.iter
            (fun (ub, n) ->
              cum := !cum + n;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (prom_labels (e.labels @ [ ("le", prom_num ub) ]))
                   !cum))
            h.buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" name
               (prom_labels (e.labels @ [ ("le", "+Inf") ]))
               h.count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" name (prom_labels e.labels)
               (prom_num h.sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" name (prom_labels e.labels)
               h.count))
      t;
    Buffer.contents b

  let dur ns =
    if ns >= 1e9 then Printf.sprintf "%.3fs" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.3fms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.3fus" (ns /. 1e3)
    else Printf.sprintf "%.0fns" ns

  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.4g" v

  let pp ppf t =
    let label_str ls =
      if ls = [] then ""
      else
        "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"
    in
    let value_str name = function
      | Counter n -> string_of_int n
      | Gauge v -> num v
      | Histogram h ->
        let is_ns =
          String.length name >= 3
          && String.sub name (String.length name - 3) 3 = ".ns"
        in
        let one v = if is_ns then dur v else num v in
        if h.count = 0 then "n=0"
        else
          Printf.sprintf "n=%d total=%s mean=%s max=%s" h.count (one h.sum)
            (one (h.sum /. float_of_int h.count))
            (one h.max)
    in
    let rows =
      List.map
        (fun e -> (e.name ^ label_str e.labels, value_str e.name e.value))
        t
    in
    let w = List.fold_left (fun m (k, _) -> max m (String.length k)) 0 rows in
    List.iter
      (fun (k, v) ->
        Format.fprintf ppf "%s%s  %s@." k
          (String.make (w - String.length k) ' ')
          v)
      rows
end

(* ------------------------------------------------------------------ *)

let now_ns = Monotonic_clock.now

(* [live] is false iff the null sink is installed; declared ahead of
   [Sink] so [Scope] (below) can degrade to a bare call under it. *)
let live = ref false

module Scope = struct
  type t = {
    epoch : int option;
    tid : int option;
    phase : string option;
    tenant : string option;
  }

  let none = { epoch = None; tid = None; phase = None; tenant = None }

  (* Domain-local: pool workers layer scopes over their own tasks without
     racing the master or each other. *)
  let key = Domain.DLS.new_key (fun () -> none)
  let current () = Domain.DLS.get key

  let with_scope ?epoch ?tid ?phase ?tenant f =
    if not !live then f ()
    else begin
      let prev = Domain.DLS.get key in
      let merged =
        {
          epoch = (match epoch with Some _ -> epoch | None -> prev.epoch);
          tid = (match tid with Some _ -> tid | None -> prev.tid);
          phase = (match phase with Some _ -> phase | None -> prev.phase);
          tenant = (match tenant with Some _ -> tenant | None -> prev.tenant);
        }
      in
      Domain.DLS.set key merged;
      Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
    end
end

(* Observations land in power-of-two buckets: index k holds values in
   (2^(k-1), 2^k], with everything <= 1 in bucket 0. *)
let bucket_of v =
  let rec go k ub = if v <= ub || k >= 62 then k else go (k + 1) (ub *. 2.0) in
  go 0 1.0

module Sink = struct
  type cell =
    | Ccounter of int ref
    | Cgauge of float ref
    | Chist of hist_cell

  and hist_cell = {
    mutable hc_count : int;
    mutable hc_sum : float;
    mutable hc_min : float;
    mutable hc_max : float;
    hc_buckets : (int, int) Hashtbl.t;
  }

  type t = {
    h_add : string -> labels -> int -> unit;
    h_set : string -> labels -> float -> unit;
    h_max : string -> labels -> float -> unit;
    h_obs : string -> labels -> float -> unit;
    h_snapshot : unit -> Snapshot.t;
    h_null : bool;
  }

  let null =
    {
      h_add = (fun _ _ _ -> ());
      h_set = (fun _ _ _ -> ());
      h_max = (fun _ _ _ -> ());
      h_obs = (fun _ _ _ -> ());
      h_snapshot = (fun () -> []);
      h_null = true;
    }

  let memory () =
    let reg : (string * labels, cell) Hashtbl.t = Hashtbl.create 64 in
    (* One lock per registry: instruments are hit from pool worker domains
       (see {!Domain_pool}), and an unsynchronized Hashtbl can corrupt
       under concurrent resize — not merely lose updates. *)
    let lock = Mutex.create () in
    let cell name ls mk =
      let key = (name, ls) in
      match Hashtbl.find_opt reg key with
      | Some c -> c
      | None ->
        let c = mk () in
        Hashtbl.replace reg key c;
        c
    in
    let add name ls n =
      Mutex.protect lock (fun () ->
          match cell name ls (fun () -> Ccounter (ref 0)) with
          | Ccounter r -> r := !r + n
          | Cgauge _ | Chist _ -> ())
    in
    let set name ls v =
      Mutex.protect lock (fun () ->
          match cell name ls (fun () -> Cgauge (ref v)) with
          | Cgauge r -> r := v
          | Ccounter _ | Chist _ -> ())
    in
    let set_max name ls v =
      Mutex.protect lock (fun () ->
          match cell name ls (fun () -> Cgauge (ref v)) with
          | Cgauge r -> if v > !r then r := v
          | Ccounter _ | Chist _ -> ())
    in
    let obs name ls v =
      Mutex.protect lock (fun () ->
      match
        cell name ls (fun () ->
            Chist
              {
                hc_count = 0;
                hc_sum = 0.0;
                hc_min = 0.0;
                hc_max = 0.0;
                hc_buckets = Hashtbl.create 8;
              })
      with
      | Chist h ->
        h.hc_min <- (if h.hc_count = 0 then v else Float.min h.hc_min v);
        h.hc_max <- (if h.hc_count = 0 then v else Float.max h.hc_max v);
        h.hc_count <- h.hc_count + 1;
        h.hc_sum <- h.hc_sum +. v;
        let b = bucket_of v in
        Hashtbl.replace h.hc_buckets b
          (1 + Option.value (Hashtbl.find_opt h.hc_buckets b) ~default:0)
      | Ccounter _ | Cgauge _ -> ())
    in
    let snapshot () =
      Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun (name, labels) c acc ->
          let value =
            match c with
            | Ccounter r -> Snapshot.Counter !r
            | Cgauge r -> Snapshot.Gauge !r
            | Chist h ->
              let buckets =
                Hashtbl.fold (fun k n acc -> (k, n) :: acc) h.hc_buckets []
                |> List.sort compare
                |> List.map (fun (k, n) -> (Float.pow 2.0 (float_of_int k), n))
              in
              Snapshot.Histogram
                {
                  count = h.hc_count;
                  sum = h.hc_sum;
                  min = h.hc_min;
                  max = h.hc_max;
                  buckets;
                }
          in
          { Snapshot.name; labels; value } :: acc)
        reg []
      |> List.sort (fun (a : Snapshot.entry) b ->
             compare (a.name, a.labels) (b.name, b.labels)))
    in
    {
      h_add = add;
      h_set = set;
      h_max = set_max;
      h_obs = obs;
      h_snapshot = snapshot;
      h_null = false;
    }

  let jsonl ppf =
    let lock = Mutex.create () in
    let scope_fields () =
      let s = Scope.current () in
      if s = Scope.none then []
      else
        [
          ( "scope",
            Json.Obj
              ((match s.Scope.epoch with
               | Some e -> [ ("epoch", Json.Int e) ]
               | None -> [])
              @ (match s.Scope.tid with
                | Some t -> [ ("tid", Json.Int t) ]
                | None -> [])
              @ (match s.Scope.phase with
                | Some p -> [ ("phase", Json.String p) ]
                | None -> [])
              @
              match s.Scope.tenant with
              | Some tn -> [ ("tenant", Json.String tn) ]
              | None -> []) );
        ]
    in
    let emit kind name ls v =
      let j =
        Json.Obj
          ([ ("kind", Json.String kind); ("name", Json.String name) ]
          @ (if ls = [] then []
             else
               [
                 ( "labels",
                   Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls) );
               ])
          @ [ ("v", v); ("t_ns", Json.Float (Int64.to_float (now_ns ()))) ]
          @ scope_fields ())
      in
      Mutex.protect lock (fun () ->
          Format.fprintf ppf "%s@." (Json.to_string j))
    in
    {
      h_add = (fun name ls n -> emit "add" name ls (Json.Int n));
      h_set = (fun name ls v -> emit "set" name ls (Json.Float v));
      h_max = (fun name ls v -> emit "set_max" name ls (Json.Float v));
      h_obs = (fun name ls v -> emit "observe" name ls (Json.Float v));
      h_snapshot = (fun () -> []);
      h_null = false;
    }

  let tee a b =
    {
      h_add = (fun n l v -> a.h_add n l v; b.h_add n l v);
      h_set = (fun n l v -> a.h_set n l v; b.h_set n l v);
      h_max = (fun n l v -> a.h_max n l v; b.h_max n l v);
      h_obs = (fun n l v -> a.h_obs n l v; b.h_obs n l v);
      h_snapshot = (fun () -> a.h_snapshot () @ b.h_snapshot ());
      h_null = a.h_null && b.h_null;
    }

  let snapshot t = t.h_snapshot ()
end

let current = ref Sink.null

let set_sink s =
  current := s;
  live := not s.Sink.h_null

let sink () = !current
let enabled () = !live

let with_sink s f =
  let prev = !current in
  set_sink s;
  Fun.protect ~finally:(fun () -> set_sink prev) f

(* ------------------------------------------------------------------ *)

type handle = { name : string; labels : labels }

let handle ?(labels = []) name = { name; labels = canon_labels labels }

module Counter = struct
  type t = handle

  let make = handle
  let add c n = if !live then !current.Sink.h_add c.name c.labels n
  let incr c = add c 1
end

module Gauge = struct
  type t = handle

  let make = handle
  let set g v = if !live then !current.Sink.h_set g.name g.labels v
  let set_max g v = if !live then !current.Sink.h_max g.name g.labels v
end

module Histogram = struct
  type t = handle

  let make = handle
  let observe h v = if !live then !current.Sink.h_obs h.name h.labels v
end

module Span = struct
  type t = handle

  let make = handle

  let time s f =
    if not !live then f ()
    else
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
          if !live then !current.Sink.h_obs s.name s.labels dt)
        f
end
