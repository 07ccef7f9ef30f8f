(* Closed-loop load on the serve daemon: [conns] client slots, each
   streaming sessions back to back (the daemon closes the connection after
   REPORT, so every session connects afresh), multiplexed with select in
   this one thread so no slot's writes or reads wait on another's. *)

type timing = {
  hello_rtt : float;  (** HELLO written -> HELLO_OK read *)
  data_send : float;  (** HELLO_OK read -> FIN written (write blocking is backpressure) *)
  fin_to_report : float;  (** FIN written -> REPORT read *)
  latency : float;  (** HELLO written -> REPORT read *)
}

type phase = Hello_out | Hello_wait | Body_out | Report_wait

type slot = {
  session : int;
  fd : Unix.file_descr;
  reader : Layers.reader;
  mutable phase : phase;
  mutable out : string;
  mutable off : int;
  t_start : float;
  mutable t_hello_ok : float;
  mutable t_fin : float;
}

let buf = Bytes.create 65536

(* [next ()] names the next session to run, or [None] to stop issuing;
   [finish k result] receives session [k]'s REPORT line (or the reason it
   failed) with its timings.  Returns when every issued session ended. *)
let run ~socket ~conns ~next ~hello ~body ~finish =
  let slots = Array.make conns None in
  let fail i s msg =
    (try Unix.close s.fd with Unix.Unix_error _ -> ());
    slots.(i) <- None;
    finish s.session (Error msg) None
  in
  let start i =
    match next () with
    | None -> ()
    | Some k -> (
      let out = hello k in
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        finish k (Error ("connect: " ^ Unix.error_message e)) None
      | () ->
        Unix.set_nonblock fd;
        let t_start = Layers.clock () in
        slots.(i) <-
          Some
            {
              session = k;
              fd;
              reader = Layers.reader ();
              phase = Hello_out;
              out;
              off = 0;
              t_start;
              t_hello_ok = 0.;
              t_fin = 0.;
            })
  in
  let write i s =
    match
      Unix.write_substring s.fd s.out s.off (String.length s.out - s.off)
    with
    | n ->
      s.off <- s.off + n;
      if s.off = String.length s.out then
        if s.phase = Hello_out then s.phase <- Hello_wait
        else begin
          s.t_fin <- Layers.clock ();
          s.phase <- Report_wait
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      fail i s ("connection lost: " ^ Unix.error_message e)
  in
  let rec replies i s =
    match Layers.next_reply s.reader with
    | Layers.Pending -> ()
    | Layers.Hello_ok 0 when s.phase = Hello_wait ->
      s.t_hello_ok <- Layers.clock ();
      s.phase <- Body_out;
      s.out <- body s.session;
      s.off <- 0;
      replies i s
    | Layers.Report r when s.phase = Report_wait ->
      let t = Layers.clock () in
      (try Unix.close s.fd with Unix.Unix_error _ -> ());
      slots.(i) <- None;
      finish s.session (Ok r)
        (Some
           {
             hello_rtt = s.t_hello_ok -. s.t_start;
             data_send = s.t_fin -. s.t_hello_ok;
             fin_to_report = t -. s.t_fin;
             latency = t -. s.t_start;
           })
    | Layers.Hello_ok n -> fail i s (Printf.sprintf "unexpected HELLO_OK %d" n)
    | Layers.Report _ -> fail i s "REPORT before FIN"
    | Layers.Failed m -> fail i s m
  in
  let read i s =
    match Unix.read s.fd buf 0 (Bytes.length buf) with
    | 0 -> fail i s "connection closed by daemon"
    | n ->
      Layers.feed_reader s.reader buf ~len:n;
      replies i s
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      fail i s ("connection lost: " ^ Unix.error_message e)
  in
  for i = 0 to conns - 1 do
    start i
  done;
  let live () = Array.exists Option.is_some slots in
  while live () do
    let fds phases =
      Array.to_list slots
      |> List.filter_map (function
           | Some s when List.mem s.phase phases -> Some s.fd
           | _ -> None)
    in
    let readable, writable, _ =
      try
        Unix.select
          (fds [ Hello_wait; Body_out; Report_wait ])
          (fds [ Hello_out; Body_out ])
          [] 0.5
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i -> function
        | None -> ()
        | Some s ->
          if List.mem s.fd writable then write i s;
          (match slots.(i) with
          | Some s when List.mem s.fd readable -> read i s
          | _ -> ());
          match slots.(i) with
          | Some s when Layers.clock () -. s.t_start > Proc.timeout_s ->
            fail i s "timed out"
          | _ -> ())
      slots;
    (* A slot whose session ended moves on to the next one. *)
    Array.iteri (fun i s -> if Option.is_none s then start i) slots
  done
