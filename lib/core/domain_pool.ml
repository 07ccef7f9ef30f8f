type task = Stop | Run of (unit -> unit)

type worker = {
  queue : task Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

type t = {
  pool_name : string;
  capacity : int;
  workers : worker array; (* size - 1: the caller is the other domain *)
  busy : int Atomic.t;
  mutable handles : unit Domain.t array;
  mutable rr : int; (* round-robin submission cursor *)
  mutable live : bool;
  g_size : Obs.Gauge.t;
  g_util : Obs.Gauge.t;
  h_depth : Obs.Histogram.t;
  h_wait : Obs.Histogram.t;
  sp_task : Obs.Span.t;
}

let max_domains () = max 1 (Domain.recommended_domain_count ())

let name t = t.pool_name
let size t = Array.length t.workers + 1

let shares t n =
  if not t.live then invalid_arg "Domain_pool.shares: pool is shut down";
  max 1 (min n (size t))

(* Pop one task, signalling the submitter that queue space freed up. *)
let take w =
  Mutex.lock w.lock;
  while Queue.is_empty w.queue do
    Condition.wait w.not_empty w.lock
  done;
  let task = Queue.pop w.queue in
  Condition.signal w.not_full;
  Mutex.unlock w.lock;
  task

let worker_loop t w =
  let rec go () =
    match take w with
    | Stop -> ()
    | Run f ->
      Atomic.incr t.busy;
      if Obs.enabled () then
        Obs.Gauge.set t.g_util
          (float_of_int (Atomic.get t.busy) /. float_of_int (size t));
      Obs.Span.time t.sp_task f;
      (* [f] is exception-free: [async] wraps the user thunk. *)
      Atomic.decr t.busy;
      go ()
  in
  go ()

let create ?(name = "pool") ?(queue_capacity = 64) ~domains () =
  if domains <= 0 then invalid_arg "Domain_pool.create: domains must be > 0";
  if queue_capacity <= 0 then
    invalid_arg "Domain_pool.create: queue_capacity must be > 0";
  let n = max 1 (min domains (max_domains ())) in
  let labels = [ ("pool", name) ] in
  let t =
    {
      pool_name = name;
      capacity = queue_capacity;
      workers =
        Array.init (n - 1) (fun _ ->
            {
              queue = Queue.create ();
              lock = Mutex.create ();
              not_empty = Condition.create ();
              not_full = Condition.create ();
            });
      busy = Atomic.make 0;
      handles = [||];
      rr = 0;
      live = true;
      g_size = Obs.Gauge.make ~labels "pool.size";
      g_util = Obs.Gauge.make ~labels "pool.utilization";
      h_depth = Obs.Histogram.make ~labels "pool.queue_depth";
      h_wait = Obs.Histogram.make ~labels "pool.submit_wait.ns";
      sp_task = Obs.Span.make ~labels "pool.task.ns";
    }
  in
  Obs.Gauge.set t.g_size (float_of_int n);
  t.handles <-
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) t.workers;
  t

(* Enqueue on one worker, blocking while its queue is at capacity. *)
let enqueue t w task =
  Mutex.lock w.lock;
  Obs.Histogram.observe t.h_depth (float_of_int (Queue.length w.queue));
  if Queue.length w.queue >= t.capacity then begin
    let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
    while Queue.length w.queue >= t.capacity do
      Condition.wait w.not_full w.lock
    done;
    if Obs.enabled () then
      Obs.Histogram.observe t.h_wait
        (Int64.to_float (Int64.sub (Obs.now_ns ()) t0))
  end;
  Queue.push task w.queue;
  Condition.signal w.not_empty;
  Mutex.unlock w.lock

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  f_lock : Mutex.t;
  f_done : Condition.t;
  mutable state : 'a state;
}

let async t f =
  if not t.live then invalid_arg "Domain_pool.async: pool is shut down";
  let fut = { f_lock = Mutex.create (); f_done = Condition.create (); state = Pending } in
  let run () =
    let outcome = match f () with v -> Done v | exception e -> Failed e in
    Mutex.lock fut.f_lock;
    fut.state <- outcome;
    Condition.broadcast fut.f_done;
    Mutex.unlock fut.f_lock
  in
  if Array.length t.workers = 0 then Obs.Span.time t.sp_task run
  else begin
    let w = t.workers.(t.rr) in
    t.rr <- (t.rr + 1) mod Array.length t.workers;
    enqueue t w (Run run)
  end;
  fut

let poll fut =
  Mutex.lock fut.f_lock;
  let done_ = fut.state <> Pending in
  Mutex.unlock fut.f_lock;
  done_

let await fut =
  Mutex.lock fut.f_lock;
  while fut.state = Pending do
    Condition.wait fut.f_done fut.f_lock
  done;
  let outcome = fut.state in
  Mutex.unlock fut.f_lock;
  match outcome with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter (fun w -> enqueue t w Stop) t.workers;
    Array.iter Domain.join t.handles;
    Obs.Gauge.set t.g_util 0.0
  end

let with_pool ?name ?queue_capacity ~domains f =
  let t = create ?name ?queue_capacity ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
