(* Child processes, measured from outside: batch jobs through wait4, the
   serve daemon through /proc. *)

external wait4 : int -> int * int * float * float = "e2e_wait4"
external clk_tck : unit -> int = "e2e_clk_tck"

type job = {
  code : int;  (** exit code; 128 + N when killed by signal N *)
  timed_out : bool;
  out : string;  (** everything the child wrote to stdout *)
  latency_s : float;  (** spawn to exit, with stdout drained *)
  maxrss_kb : int;
  cpu_s : float;  (** user + system *)
}

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (EINTR, _, _) -> restart_on_eintr f

(* A job or session still running after this long is killed, and counts as
   failed. *)
let timeout_s = 60.

(* Run [prog args] with stdout captured and stderr passed through. *)
let run_job_here prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Layers.clock () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process prog
          (Array.of_list (prog :: args))
          Unix.stdin wr Unix.stderr)
  in
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let timed_out = ref false in
  let rec drain () =
    let left = t0 +. timeout_s -. Layers.clock () in
    if left <= 0. then begin
      timed_out := true;
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
    else
      match restart_on_eintr (fun () -> Unix.select [ rd ] [] [] left) with
      | [], _, _ -> drain ()
      | _ -> (
        match restart_on_eintr (fun () -> Unix.read rd chunk 0 65536) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes out chunk 0 n;
          drain ())
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) drain;
  let code, maxrss_kb, utime, stime = wait4 pid in
  {
    code;
    timed_out = !timed_out;
    out = Buffer.contents out;
    latency_s = Layers.clock () -. t0;
    maxrss_kb;
    cpu_s = utime +. stime;
  }

(* Jobs are spawned by a helper forked at start-up, while this process is
   still small: Linux folds the pre-exec address space's peak into a
   child's ru_maxrss, so a job spawned by the benchmark proper, which
   holds every input, would report at least the benchmark's own size. *)
type server = { requests : out_channel; replies : in_channel; pid : int }

let server = ref None

let start_server () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
    try
      Unix.close req_w;
      Unix.close rep_r;
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr rep_w in
      let rec serve () =
        match (Marshal.from_channel ic : string * string list) with
        | prog, args ->
          Marshal.to_channel oc (run_job_here prog args) [];
          flush oc;
          serve ()
        | exception End_of_file -> ()
      in
      serve ();
      Unix._exit 0
    with _ -> Unix._exit 2)
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    server :=
      Some
        {
          requests = Unix.out_channel_of_descr req_w;
          replies = Unix.in_channel_of_descr rep_r;
          pid;
        }

let stop_server () =
  match !server with
  | None -> ()
  | Some s ->
    server := None;
    close_out s.requests;
    ignore (restart_on_eintr (fun () -> Unix.waitpid [] s.pid));
    close_in s.replies

let run_job prog args =
  match !server with
  | None -> invalid_arg "Proc.run_job: start_server first"
  | Some s ->
    Marshal.to_channel s.requests (prog, args) [];
    flush s.requests;
    (Marshal.from_channel s.replies : job)

let spawn prog args =
  Unix.create_process prog
    (Array.of_list (prog :: args))
    Unix.stdin Unix.stderr Unix.stderr

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a live process, KiB. *)
let peak_rss_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           int_of_string_opt (String.trim (List.hd (String.split_on_char 'k' v)))
         | _ -> None)
  |> Option.value ~default:0

(* User + system CPU time of a live process, seconds. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name start at field 3, so
     utime (field 14) and stime (field 15) are at 11 and 12. *)
  let i = String.rindex stat ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub stat i (String.length stat - i)))
  in
  (float_of_string f.(11) +. float_of_string f.(12))
  /. float_of_int (clk_tck ())

(* SIGTERM, then SIGKILL if the process is still there after 10 s. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Layers.clock () +. 10. in
  let rec reap () =
    match restart_on_eintr (fun () -> Unix.waitpid [ WNOHANG ] pid) with
    | 0, _ when Layers.clock () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (restart_on_eintr (fun () -> Unix.waitpid [] pid))
    | _ -> ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  reap ()

let rec remove_tree path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end
