(* The per-epoch pass-2 fan-out, Window.pass2_epoch: the one place the
   TaintCheck and RaceCheck engines go parallel.  Its contract:

   - every block's pass 2 runs exactly once, and [commit2] sees the
     results on the calling domain in tid order — the inline order —
     whatever order pool workers finish in (1/2/8-domain pools);
   - a raising task re-raises on the master at its own commit point,
     after the commits of the threads before it, and the pool survives
     to run the next epoch.

   The dataflow window built on it is checked against the whole-grid
   reference, inline and on pools, in test_scheduler.ml. *)

module Pool = Butterfly.Domain_pool
module Sched = Butterfly.Window

let check = Alcotest.check

(* Some busy work whose length varies by block, so pool workers finish
   out of order. *)
let spin ~epoch ~tid =
  let n = ((epoch * 7919) + (tid * 104729)) mod 3000 in
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  (epoch, tid, !acc)

(* Every epoch of an (epochs x threads) grid through [pass2_epoch]; the
   commit log must be the inline schedule's, result for result. *)
let ordered_prop ?pool (epochs, threads) =
  let epochs = 1 + (epochs mod 6) and threads = 1 + (threads mod 9) in
  let drive ?pool () =
    let log = ref [] in
    let master = Domain.self () in
    for l = 0 to epochs - 1 do
      Sched.pass2_epoch ?pool ~threads ~pass2:spin
        ~commit2:(fun ~epoch ~tid r ->
          if Domain.self () <> master then
            Alcotest.fail "commit ran off the master domain";
          log := (epoch, tid, r) :: !log)
        l
    done;
    List.rev !log
  in
  let inline = drive () in
  List.length inline = epochs * threads
  && List.for_all (fun (l, t, (l', t', _)) -> l = l' && t = t') inline
  && inline = drive ?pool ()

let arb_shape =
  QCheck.make
    ~print:(fun (e, t) -> Printf.sprintf "epochs~%d threads~%d" e t)
    QCheck.Gen.(pair (int_bound 64) (int_bound 64))

let ordered =
  Testutil.qtest ~count:100 "inline: commits in tid order" arb_shape
    (ordered_prop ?pool:None)
  :: List.map
       (fun domains ->
         Testutil.qtest ~count:60
           (Printf.sprintf "%d-domain pool: commits in tid order" domains)
           arb_shape
           (fun shape ->
             Pool.with_pool ~name:"pass2" ~domains (fun pool ->
                 ordered_prop ~pool shape)))
       [ 1; 2; 8 ]

exception Boom

(* Thread 2 of epoch 1 raises: threads 0 and 1 are committed, the
   exception surfaces once, and nothing after it is committed. *)
let raise_at_commit ?pool () =
  let committed = ref [] in
  let raised = ref 0 in
  (try
     for l = 0 to 2 do
       Sched.pass2_epoch ?pool ~threads:4
         ~pass2:(fun ~epoch ~tid ->
           if epoch = 1 && tid = 2 then raise Boom;
           (epoch, tid))
         ~commit2:(fun ~epoch:_ ~tid:_ r -> committed := r :: !committed)
         l
     done
   with Boom -> incr raised);
  check Alcotest.int "raised exactly once" 1 !raised;
  check
    Alcotest.(list (pair int int))
    "commits up to the raising task"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 0); (1, 1) ]
    (List.rev !committed)

let raising =
  [
    Alcotest.test_case "inline: a raising task re-raises at its commit"
      `Quick (fun () -> raise_at_commit ());
    Alcotest.test_case
      "pooled: a raising task re-raises at its commit; pool survives" `Quick
      (fun () ->
        Pool.with_pool ~name:"pass2-raise" ~domains:2 (fun pool ->
            raise_at_commit ~pool ();
            (* The pool took the exception in stride: it still runs work,
               and the next epoch fans out as usual. *)
            let f = Pool.async pool (fun () -> 41 + 1) in
            check Alcotest.int "pool survives" 42 (Pool.await f);
            let log = ref [] in
            Sched.pass2_epoch ~pool ~threads:3
              ~pass2:(fun ~epoch:_ ~tid -> tid)
              ~commit2:(fun ~epoch:_ ~tid:_ r -> log := r :: !log)
              0;
            check Alcotest.(list int) "next epoch" [ 0; 1; 2 ] (List.rev !log)));
    Alcotest.test_case "a shut-down pool raises Invalid_argument" `Quick
      (fun () ->
        let pool = Pool.create ~name:"pass2-dead" ~domains:1 () in
        Pool.shutdown pool;
        match
          Sched.pass2_epoch ~pool ~threads:1
            ~pass2:(fun ~epoch:_ ~tid:_ -> ())
            ~commit2:(fun ~epoch:_ ~tid:_ () -> ())
            0
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "pass2_epoch on a shut-down pool must raise");
  ]

let () =
  Alcotest.run "parallel"
    [
      ("ordered-commit", ordered);
      ("raising", raising);
    ]
