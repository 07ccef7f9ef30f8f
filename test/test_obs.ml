(* The Obs telemetry subsystem: registry semantics, sink swapping,
   snapshot determinism, JSON serialization — and the pipeline's window
   accounting: the streaming scheduler's occupancy metrics must agree
   with its own high-water-mark accessor and with the epoch grid
   Epochs.of_program builds from the same trace. *)

let counter_semantics =
  Alcotest.test_case "counters aggregate in the memory sink" `Quick (fun () ->
      let c = Obs.Counter.make "t.count" in
      let cl = Obs.Counter.make ~labels:[ ("k", "v") ] "t.count" in
      Obs.Counter.incr c;
      (* dropped: null sink *)
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          Alcotest.(check bool) "enabled under memory sink" true (Obs.enabled ());
          Obs.Counter.incr c;
          Obs.Counter.add c 41;
          Obs.Counter.add cl 7);
      Alcotest.(check bool) "disabled after restore" false (Obs.enabled ());
      let snap = Obs.Sink.snapshot sink in
      Alcotest.(check int) "unlabelled" 42 (Obs.Snapshot.counter snap "t.count");
      Alcotest.(check int) "labelled is a separate series" 7
        (Obs.Snapshot.counter ~labels:[ ("k", "v") ] snap "t.count");
      Alcotest.(check int) "absent counter reads 0" 0
        (Obs.Snapshot.counter snap "t.missing"))

let gauge_semantics =
  Alcotest.test_case "gauges: set overwrites, set_max keeps the max" `Quick
    (fun () ->
      let g = Obs.Gauge.make "t.gauge" in
      let hwm = Obs.Gauge.make "t.hwm" in
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          Obs.Gauge.set g 5.0;
          Obs.Gauge.set g 2.0;
          Obs.Gauge.set_max hwm 5.0;
          Obs.Gauge.set_max hwm 2.0);
      let snap = Obs.Sink.snapshot sink in
      Alcotest.(check (float 0.0)) "set" 2.0 (Obs.Snapshot.gauge snap "t.gauge");
      Alcotest.(check (float 0.0)) "set_max" 5.0 (Obs.Snapshot.gauge snap "t.hwm"))

let histogram_semantics =
  Alcotest.test_case "histograms: count/sum/min/max and buckets" `Quick
    (fun () ->
      let h = Obs.Histogram.make "t.hist" in
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          List.iter (Obs.Histogram.observe h) [ 1.0; 3.0; 100.0; 0.5 ]);
      match Obs.Snapshot.find (Obs.Sink.snapshot sink) "t.hist" with
      | Some (Obs.Snapshot.Histogram hs) ->
        Alcotest.(check int) "count" 4 hs.count;
        Alcotest.(check (float 1e-9)) "sum" 104.5 hs.sum;
        Alcotest.(check (float 1e-9)) "min" 0.5 hs.min;
        Alcotest.(check (float 1e-9)) "max" 100.0 hs.max;
        Alcotest.(check int) "buckets partition the observations" 4
          (List.fold_left (fun acc (_, n) -> acc + n) 0 hs.buckets);
        Testutil.checkb "bucket bounds ascend" true
          (let bounds = List.map fst hs.buckets in
           bounds = List.sort compare bounds)
      | _ -> Alcotest.fail "expected a histogram")

let sink_swapping =
  Alcotest.test_case "handles follow the installed sink" `Quick (fun () ->
      let c = Obs.Counter.make "t.swap" in
      let a = Obs.Sink.memory () and b = Obs.Sink.memory () in
      Obs.with_sink a (fun () -> Obs.Counter.incr c);
      Obs.with_sink b (fun () -> Obs.Counter.add c 10);
      (* nested swap restores the outer sink, also on exceptions *)
      Obs.with_sink a (fun () ->
          (try Obs.with_sink b (fun () -> failwith "boom") with Failure _ -> ());
          Obs.Counter.incr c);
      Alcotest.(check int) "sink a" 2
        (Obs.Snapshot.counter (Obs.Sink.snapshot a) "t.swap");
      Alcotest.(check int) "sink b" 10
        (Obs.Snapshot.counter (Obs.Sink.snapshot b) "t.swap"))

let tee_sink =
  Alcotest.test_case "tee duplicates events to both sinks" `Quick (fun () ->
      let c = Obs.Counter.make "t.tee" in
      let a = Obs.Sink.memory () and b = Obs.Sink.memory () in
      Obs.with_sink (Obs.Sink.tee a b) (fun () -> Obs.Counter.add c 3);
      Alcotest.(check int) "a" 3 (Obs.Snapshot.counter (Obs.Sink.snapshot a) "t.tee");
      Alcotest.(check int) "b" 3 (Obs.Snapshot.counter (Obs.Sink.snapshot b) "t.tee"))

let snapshot_determinism =
  Alcotest.test_case "identical runs snapshot identically" `Quick (fun () ->
      let record () =
        let sink = Obs.Sink.memory () in
        Obs.with_sink sink (fun () ->
            let c = Obs.Counter.make ~labels:[ ("x", "1") ] "t.z" in
            let c2 = Obs.Counter.make "t.a" in
            let g = Obs.Gauge.make "t.m" in
            Obs.Counter.add c 5;
            Obs.Counter.add c2 2;
            Obs.Gauge.set_max g 9.0);
        Obs.Sink.snapshot sink
      in
      let s1 = record () and s2 = record () in
      Testutil.checkb "snapshots equal" true (s1 = s2);
      let names = List.map (fun (e : Obs.Snapshot.entry) -> e.name) s1 in
      Testutil.checkb "sorted by name" true (names = List.sort compare names))

let span_timing =
  Alcotest.test_case "spans record durations, also on exceptions" `Quick
    (fun () ->
      let sp = Obs.Span.make "t.span.ns" in
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          Obs.Span.time sp (fun () -> ignore (Sys.opaque_identity 42));
          try Obs.Span.time sp (fun () -> failwith "die") with Failure _ -> ());
      match Obs.Snapshot.find (Obs.Sink.snapshot sink) "t.span.ns" with
      | Some (Obs.Snapshot.Histogram hs) ->
        Alcotest.(check int) "both thunks recorded" 2 hs.count;
        Testutil.checkb "durations are non-negative" true (hs.min >= 0.0)
      | _ -> Alcotest.fail "expected a histogram")

let json_output =
  Alcotest.test_case "snapshot serializes to well-formed JSON" `Quick (fun () ->
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          Obs.Counter.add (Obs.Counter.make ~labels:[ ("l", "x\"y") ] "t.j") 1;
          Obs.Histogram.observe (Obs.Histogram.make "t.h") 2.0);
      let s = Obs.Json.to_string (Obs.Snapshot.to_json (Obs.Sink.snapshot sink)) in
      Testutil.checkb "escapes quotes" true
        (Astring.String.is_infix ~affix:{|x\"y|} s);
      Testutil.checkb "histogram fields present" true
        (Astring.String.is_infix ~affix:{|"type":"histogram"|} s);
      (* Spot-check the tiny emitter against hand-written JSON. *)
      Alcotest.(check string) "literal rendering"
        {|{"a":[1,2.5,null,true,"s"],"b":{}}|}
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ( "a",
                  Obs.Json.List
                    [
                      Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null;
                      Obs.Json.Bool true; Obs.Json.String "s";
                    ] );
                ("b", Obs.Json.Obj []);
              ])))

(* The emitter escapes in place; this is the per-string escape it
   replaced, kept as the reference the output must match byte for byte. *)
let reference_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Strings dense in the bytes that need escaping, between plain runs and
   non-ASCII bytes. *)
let arb_json_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t' ]);
        (3, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x80 0xff));
        (4, printable);
      ]
  in
  QCheck.make ~print:String.escaped (string_size ~gen:byte (int_range 0 40))

let json_escape_matches_reference =
  Testutil.qtest ~count:500 "strings and keys render as the reference escape"
    arb_json_string (fun s ->
      let quoted = "\"" ^ reference_escape s ^ "\"" in
      Obs.Json.to_string (Obs.Json.String s) = quoted
      && Obs.Json.to_string
           (Obs.Json.Obj [ (s, Obs.Json.List [ Obs.Json.String s ]) ])
         = "{" ^ quoted ^ ":[" ^ quoted ^ "]}")

let jsonl_sink =
  Alcotest.test_case "jsonl sink emits one line per event" `Quick (fun () ->
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Obs.with_sink (Obs.Sink.jsonl ppf) (fun () ->
          let c = Obs.Counter.make "t.l" in
          Obs.Counter.incr c;
          Obs.Counter.add c 2;
          Obs.Gauge.set (Obs.Gauge.make "t.g") 1.5);
      Format.pp_print_flush ppf ();
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "three events, three lines" 3 (List.length lines);
      List.iter
        (fun l ->
          Testutil.checkb "line is a JSON object" true
            (String.length l > 1 && l.[0] = '{'
            && l.[String.length l - 1] = '}'))
        lines)

let histogram_edge_cases =
  Alcotest.test_case "histogram min/max: single and negative observations"
    `Quick (fun () ->
      (* A single observation pins every statistic to itself; the memory
         sink can never render min as 0 unless 0 was observed — the
         "min is 0 when count = 0" clause in the docs applies only to
         hand-built empty snapshots, which the sink cannot produce. *)
      let one v =
        let h = Obs.Histogram.make "t.single" in
        let sink = Obs.Sink.memory () in
        Obs.with_sink sink (fun () -> Obs.Histogram.observe h v);
        match Obs.Snapshot.find (Obs.Sink.snapshot sink) "t.single" with
        | Some (Obs.Snapshot.Histogram hs) -> hs
        | _ -> Alcotest.fail "expected a histogram"
      in
      let hs = one 7.25 in
      Alcotest.(check int) "count 1" 1 hs.count;
      Alcotest.(check (float 0.0)) "min = the observation" 7.25 hs.min;
      Alcotest.(check (float 0.0)) "max = the observation" 7.25 hs.max;
      Alcotest.(check (float 0.0)) "sum = the observation" 7.25 hs.sum;
      let neg = one (-3.5) in
      Alcotest.(check (float 0.0)) "negative min survives" (-3.5) neg.min;
      Alcotest.(check (float 0.0)) "negative max survives" (-3.5) neg.max;
      (* A span-shaped zero-duration observation: min must be a real 0
         from observing, not a count-0 placeholder. *)
      let z = one 0.0 in
      Alcotest.(check int) "count 1 at zero" 1 z.count;
      Alcotest.(check (float 0.0)) "zero min" 0.0 z.min)

let json_parser =
  Alcotest.test_case "Json.of_string: round-trips and precise errors" `Quick
    (fun () ->
      let open Obs.Json in
      let roundtrip v =
        match of_string (to_string v) with
        | Ok v' -> Alcotest.(check string) "round-trip" (to_string v) (to_string v')
        | Error m -> Alcotest.fail ("parse failed: " ^ m)
      in
      List.iter roundtrip
        [
          Null; Bool true; Bool false; Int 0; Int (-42); Float 2.5;
          Float (-0.125); String ""; String "a\"b\\c\nd\te";
          String "unicode: \xc3\xa9"; List []; Obj [];
          List [ Int 1; List [ Obj [ ("k", Null) ] ] ];
          Obj [ ("a", Int 1); ("b", List [ Bool false ]); ("c", String "x") ];
        ];
      (* Ints stay ints, fractions and exponents become floats. *)
      (match of_string "17" with
      | Ok (Int 17) -> ()
      | _ -> Alcotest.fail "17 should parse as Int");
      (match of_string "17.0" with
      | Ok (Float 17.0) -> ()
      | _ -> Alcotest.fail "17.0 should parse as Float");
      (match of_string "1e3" with
      | Ok (Float 1000.0) -> ()
      | _ -> Alcotest.fail "1e3 should parse as Float");
      (* \u escapes decode to UTF-8; raw UTF-8 passes through. *)
      (match of_string "\"\\u00e9\"" with
      | Ok (String "\xc3\xa9") -> ()
      | _ -> Alcotest.fail "\\u00e9 should decode to UTF-8");
      (match of_string "\"\xc3\xa9\"" with
      | Ok (String "\xc3\xa9") -> ()
      | _ -> Alcotest.fail "raw UTF-8 should pass through");
      (* Errors carry a byte offset and reject trailing garbage. *)
      let fails s =
        match of_string s with
        | Error m ->
          Testutil.checkb ("offset in: " ^ m) true
            (Astring.String.is_prefix ~affix:"byte " m)
        | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
      in
      List.iter fails
        [ ""; "{"; "[1,"; "{\"a\"}"; "tru"; "1 2"; "\"unterminated"; "{]";
          "[1] trailing"; "nan" ])

let jsonl_scope =
  Alcotest.test_case "jsonl events carry t_ns and the active scope" `Quick
    (fun () ->
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      let c = Obs.Counter.make "t.scoped" in
      Obs.with_sink (Obs.Sink.jsonl ppf) (fun () ->
          Obs.Counter.incr c;
          Obs.Scope.with_scope ~epoch:3 ~phase:"pass1" (fun () ->
              Obs.Counter.incr c;
              (* nested scope inherits epoch, overrides phase, adds tid *)
              Obs.Scope.with_scope ~tid:1 ~phase:"pass2" (fun () ->
                  Obs.Counter.incr c));
          (* restored after the nested scopes *)
          Obs.Counter.incr c);
      Format.pp_print_flush ppf ();
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "four events" 4 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match Obs.Json.of_string l with
            | Ok (Obs.Json.Obj fields) -> fields
            | _ -> Alcotest.fail "event line must parse as an object")
          lines
      in
      List.iter
        (fun fields ->
          Testutil.checkb "t_ns present" true
            (List.mem_assoc "t_ns" fields))
        parsed;
      let scope_of fields =
        match List.assoc_opt "scope" fields with
        | Some (Obs.Json.Obj s) -> Some s
        | _ -> None
      in
      (match List.map scope_of parsed with
      | [ None; Some s1; Some s2; None ] ->
        Alcotest.(check bool) "outer scope: epoch 3" true
          (List.assoc_opt "epoch" s1 = Some (Obs.Json.Int 3));
        Alcotest.(check bool) "outer scope: phase pass1" true
          (List.assoc_opt "phase" s1 = Some (Obs.Json.String "pass1"));
        Alcotest.(check bool) "outer scope: no tid" true
          (List.assoc_opt "tid" s1 = None);
        Alcotest.(check bool) "nested: epoch inherited" true
          (List.assoc_opt "epoch" s2 = Some (Obs.Json.Int 3));
        Alcotest.(check bool) "nested: tid layered in" true
          (List.assoc_opt "tid" s2 = Some (Obs.Json.Int 1));
        Alcotest.(check bool) "nested: phase overridden" true
          (List.assoc_opt "phase" s2 = Some (Obs.Json.String "pass2"))
      | _ -> Alcotest.fail "scope should appear on exactly the scoped events");
      (* Scopes restore on exceptions too. *)
      (try
         Obs.with_sink (Obs.Sink.memory ()) (fun () ->
             Obs.Scope.with_scope ~epoch:9 (fun () -> failwith "die"))
       with Failure _ -> ());
      Testutil.checkb "scope restored after raise" true
        (Obs.Scope.current () = Obs.Scope.none))

let prometheus_exposition =
  Alcotest.test_case "Prometheus text exposition is pinned" `Quick (fun () ->
      let sink = Obs.Sink.memory () in
      Obs.with_sink sink (fun () ->
          Obs.Counter.add
            (Obs.Counter.make ~labels:[ ("lifeguard", "x\"y\n") ] "lifeguard.checks")
            12;
          Obs.Gauge.set (Obs.Gauge.make "pool.utilization") 0.75;
          let h = Obs.Histogram.make "t.lat.ns" in
          List.iter (Obs.Histogram.observe h) [ 10.0; 100.0; 100.0 ]);
      let text = Obs.Snapshot.to_prometheus (Obs.Sink.snapshot sink) in
      Alcotest.(check string) "exposition"
        ("# TYPE lifeguard_checks counter\n\
          lifeguard_checks{lifeguard=\"x\\\"y\\n\"} 12\n\
          # TYPE pool_utilization gauge\n\
          pool_utilization 0.75\n\
          # TYPE t_lat_ns histogram\n\
          t_lat_ns_bucket{le=\"16\"} 1\n\
          t_lat_ns_bucket{le=\"128\"} 3\n\
          t_lat_ns_bucket{le=\"+Inf\"} 3\n\
          t_lat_ns_sum 210\n\
          t_lat_ns_count 3\n")
        text;
      (* Cumulative bucket counts never decrease. *)
      let sink2 = Obs.Sink.memory () in
      Obs.with_sink sink2 (fun () ->
          let h = Obs.Histogram.make "m" in
          List.iter (Obs.Histogram.observe h) (List.init 100 float_of_int));
      let lines =
        String.split_on_char '\n' (Obs.Snapshot.to_prometheus (Obs.Sink.snapshot sink2))
      in
      let counts =
        List.filter_map
          (fun l ->
            if Astring.String.is_prefix ~affix:"m_bucket" l then
              int_of_string_opt
                (List.nth (String.split_on_char ' ' l)
                   (List.length (String.split_on_char ' ' l) - 1))
            else None)
          lines
      in
      Testutil.checkb "monotone buckets" true
        (counts = List.sort compare counts && counts <> []))

let null_sink_allocation_free =
  Alcotest.test_case "null sink: instruments allocate nothing" `Quick (fun () ->
      Alcotest.(check bool) "null sink installed" false (Obs.enabled ());
      let c = Obs.Counter.make "t.alloc.c" in
      let g = Obs.Gauge.make "t.alloc.g" in
      let h = Obs.Histogram.make "t.alloc.h" in
      (* Pre-boxed float: passing a literal would box at the call site and
         charge the measurement with the caller's allocation, not the
         instrument's. *)
      let v = Sys.opaque_identity 1.5 in
      let iters = 10_000 in
      let measure f =
        f ();
        (* warm-up: first call may allocate closures/handles lazily *)
        let before = Gc.minor_words () in
        for _ = 1 to iters do
          f ()
        done;
        Gc.minor_words () -. before
      in
      let check_free what f =
        let words = measure f in
        Testutil.checkb
          (Printf.sprintf "%s allocated %.0f words over %d calls" what words
             iters)
          true
          (words < 64.0)
      in
      check_free "Counter.incr" (fun () -> Obs.Counter.incr c);
      check_free "Counter.add" (fun () -> Obs.Counter.add c 3);
      check_free "Gauge.set" (fun () -> Obs.Gauge.set g v);
      check_free "Gauge.set_max" (fun () -> Obs.Gauge.set_max g v);
      check_free "Histogram.observe" (fun () -> Obs.Histogram.observe h v))

(* ------------------------------------------------------------------ *)
(* Scheduler window accounting vs the epoch grid. *)

module RD = Butterfly.Reaching_definitions
module Sched = RD.Engine

let sched_labels = [ ("driver", "streaming"); ("problem", "reaching-definitions") ]

let window_accounting =
  Alcotest.test_case "occupancy metrics agree with the epoch grid" `Quick
    (fun () ->
      let instrs =
        List.init 600 (fun k ->
            if k mod 7 = 0 then Tracing.Instr.Read (k mod 13)
            else Tracing.Instr.Assign_const (k mod 5))
      in
      let p =
        Tracing.Program.of_instrs [ instrs; instrs; instrs ]
        |> Tracing.Program.with_heartbeats ~every:25
      in
      let epochs = Butterfly.Epochs.of_program p in
      let sink = Obs.Sink.memory () in
      let s =
        Obs.with_sink sink (fun () ->
            let s = Sched.create ~threads:3 (fun _ -> ()) () in
            Butterfly.Epochs.iter_rows epochs (Sched.feed_row s);
            ignore (Sched.finish s);
            s)
      in
      let snap = Obs.Sink.snapshot sink in
      let counter = Obs.Snapshot.counter ~labels:sched_labels snap in
      let gauge = Obs.Snapshot.gauge ~labels:sched_labels snap in
      Alcotest.(check int) "epochs processed = grid epoch count"
        (Butterfly.Epochs.num_epochs epochs)
        (counter "butterfly.epochs_processed");
      Alcotest.(check int) "epochs processed = scheduler accessor"
        (Sched.processed s)
        (counter "butterfly.epochs_processed");
      Alcotest.(check int) "pass-2 instrs = grid instr count"
        (Butterfly.Epochs.instr_count epochs)
        (counter "butterfly.pass2_instrs");
      Alcotest.(check int) "every block of the grid was closed"
        (3 * Butterfly.Epochs.num_epochs epochs)
        (counter "scheduler.blocks_closed");
      Alcotest.(check (float 0.0)) "occupancy hwm = max_resident"
        (float_of_int (Sched.max_resident s))
        (gauge "scheduler.window_occupancy_hwm");
      Testutil.checkb "window stayed bounded" true
        (gauge "scheduler.window_occupancy_hwm" <= 4.0))

let null_sink_inert =
  Alcotest.test_case "null sink: pipeline runs emit nothing" `Quick (fun () ->
      Alcotest.(check bool) "disabled" false (Obs.enabled ());
      let p =
        Tracing.Program.of_instrs [ List.init 40 (fun k -> Tracing.Instr.Read k) ]
        |> Tracing.Program.with_heartbeats ~every:10
      in
      ignore (RD.run (Butterfly.Epochs.of_program p));
      (* A lifeguard run, with its own counters and gauges, too. *)
      let p =
        Tracing.Program.of_instrs
          [ List.init 60 (fun k -> Tracing.Instr.Malloc { base = 4 * k; size = 4 }) ]
        |> Tracing.Program.with_heartbeats ~every:16
      in
      ignore (Lifeguards.Addrcheck.run (Butterfly.Epochs.of_program p));
      Alcotest.(check int) "null registry snapshots empty" 0
        (List.length (Obs.Sink.snapshot (Obs.sink ()))))

(* The functional default's promise: a shadow-state update touches one
   root-to-leaf path of the interval tree.  Budget-style Gc.minor_words
   guard on a 10^4-interval set: [add_range] and [remove_range] allocate
   O(log n) words per call (here at most 64 per tree level) and [mem]
   none at all.  A linear-time representation (the former sorted list
   copies ~6 words per interval per update) fails this immediately. *)
let interval_set_updates_logarithmic =
  Alcotest.test_case "interval-set updates allocate O(log n) words" `Quick
    (fun () ->
      let module I = Butterfly.Interval_set in
      let n = 10_000 in
      (* [8k, 8k+3): every gap is 5 wide. *)
      let s = I.of_intervals (List.init n (fun k -> (8 * k, (8 * k) + 3))) in
      Alcotest.(check int) "fixture size" n (I.interval_count s);
      let log2n =
        int_of_float (Float.ceil (Float.log2 (float_of_int n)))
      in
      let budget = float_of_int (64 * log2n) in
      let iters = 2_000 in
      let k = ref 0 in
      let per_call f =
        ignore (Sys.opaque_identity (f ()));
        let before = Gc.minor_words () in
        for _ = 1 to iters do
          k := (!k + 7919) mod n;
          ignore (Sys.opaque_identity (f ()))
        done;
        (Gc.minor_words () -. before) /. float_of_int iters
      in
      let within what f =
        let words = per_call f in
        Testutil.checkb
          (Printf.sprintf "%s: %.1f words/call, budget %.0f" what words budget)
          true (words <= budget)
      in
      (* New isolated interval inside a gap. *)
      within "add_range" (fun () -> I.add_range ((8 * !k) + 4) ((8 * !k) + 6) s);
      (* Bridging two neighbours into one interval. *)
      within "add_range (merge)" (fun () ->
          I.add_range ((8 * !k) + 3) ((8 * !k) + 8) s);
      (* Splitting an interval in two. *)
      within "remove_range" (fun () ->
          I.remove_range ((8 * !k) + 1) ((8 * !k) + 2) s);
      let mem_words = per_call (fun () -> I.mem ((8 * !k) + 1) s) in
      Testutil.checkb
        (Printf.sprintf "mem allocated %.3f words/call" mem_words)
        true
        (mem_words *. float_of_int iters < 64.0))

(* Pass 2 hands the checks the running LSOS and the side-in, never their
   meet: a state change costs the GEN/KILL update of the LSOS, O(log n)
   words on the interval tree.  Budget-style Gc.minor_words guard over a
   block of state-changing writes against a 10^4-interval LSOS and a
   side-in cutting every one of its intervals; building IN = LSOS −
   side-in at each state change copies the whole tree (about 10^5 words)
   and fails at once. *)
let pass2_state_changes_logarithmic =
  Alcotest.test_case "pass-2 state changes allocate O(log n) words" `Quick
    (fun () ->
      let module I = Butterfly.Interval_set in
      let module D = Butterfly.Dataflow.Make (struct
        let name = "t.writes"

        module Set = I

        let flavour = `Must

        let gen _ (i : Tracing.Instr.t) =
          match Tracing.Instr.writes i with
          | Some x -> I.range x (x + 1)
          | None -> I.empty

        let kill _ _ = I.empty
      end) in
      let n = 10_000 in
      (* [8k, 8k+3) in the LSOS; [8k+1, 8k+2) in the side-in. *)
      let lsos0 = I.of_intervals (List.init n (fun k -> (8 * k, (8 * k) + 3))) in
      let side_in =
        I.of_intervals (List.init n (fun k -> ((8 * k) + 1, (8 * k) + 2)))
      in
      let log2n = int_of_float (Float.ceil (Float.log2 (float_of_int n))) in
      let budget = float_of_int (64 * log2n) in
      let iters = 2_000 in
      (* Each write lands in a fresh gap: every instruction changes the
         state. *)
      let body =
        Butterfly.Block.make ~epoch:0 ~tid:0
          (Array.init iters (fun j ->
               Tracing.Instr.Assign_const ((8 * (j * 7919 mod n)) + 5)))
      in
      let views = ref 0 in
      let sink v =
        ignore (Sys.opaque_identity v);
        incr views
      in
      let before = Gc.minor_words () in
      D.iter_block ~side_in ~lsos0 ~sos:I.empty sink body;
      let words = (Gc.minor_words () -. before) /. float_of_int iters in
      Alcotest.(check int) "one view per instruction" iters !views;
      Testutil.checkb
        (Printf.sprintf "%.1f words/instruction, budget %.0f" words budget)
        true (words <= budget))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          counter_semantics; gauge_semantics; histogram_semantics;
          histogram_edge_cases; sink_swapping; tee_sink; snapshot_determinism;
          span_timing;
        ] );
      ( "serialization",
        [ json_output; json_escape_matches_reference; jsonl_sink; json_parser;
          jsonl_scope;
          prometheus_exposition ] );
      ("pipeline", [ window_accounting; null_sink_inert;
                     null_sink_allocation_free;
                     interval_set_updates_logarithmic;
                     pass2_state_changes_logarithmic ]);
    ]
