(* Domain pool: the bounded worker pool the per-epoch pass-2 fan-out
   runs on.  The contract under test: results come back in submission
   order no matter which worker ran what, exceptions surface at [await], submit
   blocks (rather than drops) when a queue fills, pool width never
   exceeds the hardware's recommended domain count, and the width counts
   the caller (a one-domain pool runs its tasks there). *)

module Pool = Butterfly.Domain_pool

let with_pool ?queue_capacity ~domains f =
  Pool.with_pool ?queue_capacity ~name:"test" ~domains f

(* The batch discipline of [Window.pass2_epoch]: submit every task in
   index order, then await the futures in index order. *)
let map_async pool f arr =
  Array.map (fun x -> Pool.async pool (fun () -> f x)) arr
  |> Array.map Pool.await

let async_order =
  Alcotest.test_case "awaiting in submission order preserves index order" `Quick (fun () ->
      with_pool ~domains:4 (fun pool ->
          let input = Array.init 257 (fun i -> i) in
          let out = map_async pool (fun i -> i * i) input in
          Alcotest.(check (array int))
            "squares in order"
            (Array.map (fun i -> i * i) input)
            out))

let async_deterministic =
  Alcotest.test_case "async/await is deterministic under timing jitter" `Quick
    (fun () ->
      (* Jittered task durations shuffle completion order; collection
         order must not move with it. *)
      let run () =
        with_pool ~domains:3 (fun pool ->
            map_async pool
              (fun i ->
                if i land 3 = 0 then Unix.sleepf 0.0005;
                i * 2)
              (Array.init 64 (fun i -> i)))
      in
      Alcotest.(check (array int)) "same output" (run ()) (run ()))

let async_empty =
  Alcotest.test_case "the empty batch submits nothing" `Quick (fun () ->
      with_pool ~domains:2 (fun pool ->
          Alcotest.(check (array int))
            "empty" [||]
            (map_async pool (fun i -> i) [||])))

let single_worker =
  Alcotest.test_case "pool of size 1 serializes but completes everything"
    `Quick (fun () ->
      with_pool ~domains:1 (fun pool ->
          Alcotest.(check int) "size" 1 (Pool.size pool);
          let input = Array.init 100 (fun i -> i) in
          Alcotest.(check (array int))
            "batch in order"
            (Array.map (fun i -> i + 1) input)
            (map_async pool (fun i -> i + 1) input);
          (* Interleaved async/await cycles on the one domain, which
             runs each task on the caller inside [async]. *)
          for k = 0 to 9 do
            Alcotest.(check int) "async round" (k * 3)
              (Pool.await (Pool.async pool (fun () -> k * 3)))
          done))

let caller_counts =
  Alcotest.test_case "size counts the caller; one domain runs tasks on it"
    `Quick (fun () ->
      let me = Domain.self () in
      with_pool ~domains:1 (fun pool ->
          Alcotest.(check int) "size" 1 (Pool.size pool);
          Alcotest.(check int) "one share" 1 (Pool.shares pool 8);
          let ran_on = Pool.await (Pool.async pool (fun () -> Domain.self ())) in
          Testutil.checkb "task ran on the caller" true (ran_on = me));
      with_pool ~domains:2 (fun pool ->
          let n = Pool.size pool in
          Testutil.checkb "size is 2, or 1 on a one-core host" true
            (n = min 2 (Pool.max_domains ()));
          Alcotest.(check int) "a share per domain" n (Pool.shares pool 8);
          Alcotest.(check int) "never more shares than items" 1
            (Pool.shares pool 1);
          if n = 2 then begin
            let ran_on =
              Pool.await (Pool.async pool (fun () -> Domain.self ()))
            in
            Testutil.checkb "task ran on the worker" true (ran_on <> me)
          end))

exception Boom of int

let exception_propagation =
  Alcotest.test_case "task exceptions surface at await" `Quick (fun () ->
      with_pool ~domains:2 (fun pool ->
          let ok = Pool.async pool (fun () -> 41 + 1) in
          let bad = Pool.async pool (fun () -> raise (Boom 7)) in
          Alcotest.(check int) "healthy future" 42 (Pool.await ok);
          (match Pool.await bad with
          | exception Boom 7 -> ()
          | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "expected Boom");
          (* The pool survives a failed task. *)
          Alcotest.(check int) "still alive" 7
            (Pool.await (Pool.async pool (fun () -> 7)))))

let exception_in_batch =
  Alcotest.test_case "a failed batch re-raises and leaves the pool reusable"
    `Quick (fun () ->
      with_pool ~domains:2 (fun pool ->
          (match
             map_async pool
               (fun i -> if i = 5 then raise (Boom i) else i)
               (Array.init 16 (fun i -> i))
           with
          | exception Boom 5 -> ()
          | exception e ->
            Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "expected Boom");
          (* The failed batch's remaining tasks drain behind it; the pool
             keeps serving batches and single tasks afterwards. *)
          Alcotest.(check (array int))
            "pool reusable for a batch" [| 0; 2; 4 |]
            (map_async pool (fun i -> 2 * i) [| 0; 1; 2 |]);
          Alcotest.(check int) "pool reusable for async" 9
            (Pool.await (Pool.async pool (fun () -> 9)))))

let exception_on_single_worker =
  Alcotest.test_case "a failed task does not wedge a size-1 pool" `Quick
    (fun () ->
      with_pool ~domains:1 (fun pool ->
          (match Pool.await (Pool.async pool (fun () -> raise (Boom 1))) with
          | exception Boom 1 -> ()
          | exception e ->
            Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "expected Boom");
          Alcotest.(check int) "still serving" 4
            (Pool.await (Pool.async pool (fun () -> 4)))))

let backpressure =
  Alcotest.test_case "submit blocks on a full queue, nothing is lost" `Quick
    (fun () ->
      (* Capacity 1 and slow tasks force every enqueue after the first
         into the backpressure path; all results must still arrive. *)
      with_pool ~queue_capacity:1 ~domains:2 (fun pool ->
          let n = 50 in
          let hits = Atomic.make 0 in
          let out =
            map_async pool
              (fun i ->
                if i land 7 = 0 then Unix.sleepf 0.001;
                Atomic.incr hits;
                i)
              (Array.init n (fun i -> i))
          in
          Alcotest.(check int) "all tasks ran" n (Atomic.get hits);
          Alcotest.(check (array int)) "in order" (Array.init n (fun i -> i)) out))

let size_capped =
  Alcotest.test_case "pool size is capped at max_domains" `Quick (fun () ->
      let cap = Pool.max_domains () in
      Alcotest.(check bool) "cap is positive" true (cap >= 1);
      with_pool ~domains:512 (fun pool ->
          Alcotest.(check bool)
            "512 requested, capped" true
            (Pool.size pool <= cap));
      match with_pool ~domains:0 (fun _ -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "expected Invalid_argument for 0 domains")

let shutdown_idempotent =
  Alcotest.test_case "shutdown is idempotent; submit after raises" `Quick
    (fun () ->
      let pool = Pool.create ~name:"test" ~domains:2 () in
      Alcotest.(check int) "works" 3 (Pool.await (Pool.async pool (fun () -> 3)));
      Pool.shutdown pool;
      Pool.shutdown pool;
      (match Pool.async pool (fun () -> 0) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument after shutdown");
      (* Same for a batch: tasks submitted after teardown must be
         rejected, not silently dropped. *)
      (match map_async pool (fun i -> i) [| 1; 2; 3 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument after shutdown");
      (* The empty batch submits nothing, so it is the one batch that
         still succeeds on a dead pool. *)
      Alcotest.(check (array int))
        "empty batch is submission-free" [||]
        (map_async pool (fun i -> i) [||]);
      (* Futures resolved before teardown remain readable after it. *)
      let pool2 = Pool.create ~name:"test" ~domains:1 () in
      let fut = Pool.async pool2 (fun () -> 11) in
      Alcotest.(check int) "resolve before shutdown" 11 (Pool.await fut);
      Pool.shutdown pool2;
      Alcotest.(check int) "await is idempotent after teardown" 11
        (Pool.await fut))

let () =
  Alcotest.run "domain_pool"
    [
      ( "pool",
        [
          async_order; async_deterministic; async_empty;
          caller_counts; single_worker; exception_propagation; exception_in_batch;
          exception_on_single_worker; backpressure; size_capped;
          shutdown_idempotent;
        ] );
    ]
