module W = Tracing.Binio.W
module R = Tracing.Binio.R

module type KERNEL = sig
  val name : string

  type env
  type params
  type summary
  type state
  type sealed
  type outcome
  type report

  val rows_behind : int
  val create : threads:int -> env -> params -> state
  val summarize : state -> Block.t -> summary

  val step :
    state -> inline:bool -> row:(int -> summary array option) -> int -> sealed

  val eval_block : sealed -> epoch:int -> tid:int -> Block.t -> outcome
  val commit : state -> epoch:int -> tid:int -> outcome -> unit
  val report : state -> row:(int -> summary array option) -> epochs:int -> report
  val put_params : W.t -> params -> unit
  val get_params : R.t -> params
  val put_body : W.t -> state -> unit

  val get_body :
    R.t -> threads:int -> processed:int -> env -> params -> state
end

module type S = sig
  type env
  type params
  type summary
  type report
  type t

  val create : ?pool:Domain_pool.t -> threads:int -> env -> params -> t
  val feed_row : t -> Tracing.Instr.t array array -> unit
  val finish : t -> report
  val run : ?pool:Domain_pool.t -> env -> params -> Epochs.t -> report
  val threads : t -> int
  val fed : t -> int
  val processed : t -> int
  val max_resident : t -> int
  val summary_row : t -> int -> summary array option
  val encode : t -> string
  val decode : ?pool:Domain_pool.t -> env -> string -> (t, string) result
end

(* How many contiguous tid ranges epoch pass 2 splits into: one per
   pool domain, the caller's included. *)
let shares ?pool threads =
  match pool with None -> 1 | Some p -> Domain_pool.shares p threads

let pass2_epoch ?pool ~threads ~pass2 ~commit2 l =
  let task tid =
    Obs.Scope.with_scope ~epoch:l ~tid ~phase:"pass2" (fun () ->
        pass2 ~epoch:l ~tid)
  in
  let inline lo hi =
    for tid = lo to hi - 1 do
      commit2 ~epoch:l ~tid (task tid)
    done
  in
  let shares = shares ?pool threads in
  match pool with
  | Some pool when shares > 1 ->
    (* Share c is tids [lo c, lo (c+1)).  Shares 1.. go to the workers
       (one task each); share 0, the smallest, runs here and is
       committed as it goes.  Commits stay in tid order: a task that
       raised re-raises at its own commit point, after every earlier
       thread's result has been committed. *)
    let lo c = c * threads / shares in
    let share c () =
      let rec go tid acc =
        if tid = lo (c + 1) then (List.rev acc, None)
        else
          match task tid with
          | r -> go (tid + 1) (r :: acc)
          | exception e -> (List.rev acc, Some e)
      in
      go (lo c) []
    in
    let futs =
      Array.init (shares - 1) (fun c -> Domain_pool.async pool (share (c + 1)))
    in
    inline 0 (lo 1);
    Array.iteri
      (fun i fut ->
        let rs, raised = Domain_pool.await fut in
        List.iteri (fun k r -> commit2 ~epoch:l ~tid:(lo (i + 1) + k) r) rs;
        Option.iter raise raised)
      futs
  | _ -> inline 0 threads

module Make (K : KERNEL) = struct
  type env = K.env
  type params = K.params
  type summary = K.summary
  type report = K.report

  let obs_labels = [ ("problem", K.name); ("driver", "streaming") ]
  let m_epochs = Obs.Counter.make ~labels:obs_labels "butterfly.epochs_processed"
  let m_instrs = Obs.Counter.make ~labels:obs_labels "butterfly.pass2_instrs"
  let m_blocks = Obs.Counter.make ~labels:obs_labels "scheduler.blocks_closed"
  let g_window = Obs.Gauge.make ~labels:obs_labels "scheduler.window_occupancy"
  let g_window_hwm =
    Obs.Gauge.make ~labels:obs_labels "scheduler.window_occupancy_hwm"
  let sp_pass1 = Obs.Span.make ~labels:obs_labels "butterfly.pass1_summarize.ns"
  let sp_step = Obs.Span.make ~labels:obs_labels "butterfly.step.ns"
  let h_commit = Obs.Histogram.make ~labels:obs_labels "butterfly.commit.ns"

  (* A resident row: the raw blocks (the durable part) and their pass-1
     summaries (derived). *)
  type row = { raw : Tracing.Instr.t array array; sums : K.summary array }

  type t = {
    threads : int;
    pool : Domain_pool.t option;
    params : K.params;
    k : K.state;
    resident : (int, row) Hashtbl.t;
    mutable fed : int;
    mutable processed : int;
    mutable hwm : int;
    mutable final : K.report option; (* set by [finish] *)
    mutable commit_ns : int64; (* the current epoch's, under a live sink *)
  }

  let make ?pool ~threads ~params ~k ~fed ~processed resident =
    {
      threads; pool; params; k; resident; fed; processed; hwm = 0;
      final = None; commit_ns = 0L;
    }

  let create ?pool ~threads env params =
    if threads <= 0 then invalid_arg (K.name ^ ": threads must be > 0");
    make ?pool ~threads ~params ~k:(K.create ~threads env params) ~fed:0
      ~processed:0 (Hashtbl.create 8)

  let threads t = t.threads
  let fed t = t.fed
  let processed t = t.processed
  let max_resident t = t.hwm

  let summary_row t l =
    match Hashtbl.find_opt t.resident l with
    | Some r -> Some r.sums
    | None ->
      if l >= 0 && l < t.fed then
        invalid_arg (K.name ^ ": row retired from the window");
      None

  let summarize t ~epoch raw =
    Array.mapi
      (fun tid instrs ->
        Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
            Obs.Span.time sp_pass1 (fun () ->
                K.summarize t.k (Block.make ~epoch ~tid instrs))))
      raw

  let commit t ~epoch ~tid o =
    Obs.Scope.with_scope ~epoch ~tid ~phase:"commit" (fun () ->
        K.commit t.k ~epoch ~tid o)

  (* Under a live sink, the epoch's commits are timed as one span.
     Gated so the null-sink hot path never boxes the clock. *)
  let timed_commit t ~epoch ~tid o =
    if Obs.enabled () then begin
      let t0 = Obs.now_ns () in
      commit t ~epoch ~tid o;
      t.commit_ns <- Int64.add t.commit_ns (Int64.sub (Obs.now_ns ()) t0)
    end
    else commit t ~epoch ~tid o

  (* Epoch [l]: seal, fan pass 2 out, commit in tid order, retire the
     row the kernel has read for the last time. *)
  let process t =
    let l = t.processed in
    let inline = shares ?pool:t.pool t.threads = 1 in
    let sealed =
      Obs.Span.time sp_step (fun () ->
          K.step t.k ~inline ~row:(summary_row t) l)
    in
    let raw = (Hashtbl.find t.resident l).raw in
    t.commit_ns <- 0L;
    pass2_epoch ?pool:t.pool ~threads:t.threads
      ~pass2:(fun ~epoch ~tid ->
        K.eval_block sealed ~epoch ~tid (Block.make ~epoch ~tid raw.(tid)))
      ~commit2:(fun ~epoch ~tid o ->
        timed_commit t ~epoch ~tid o;
        Obs.Counter.add m_instrs (Array.length raw.(tid)))
      l;
    Hashtbl.remove t.resident (l - K.rows_behind);
    t.processed <- l + 1;
    if Obs.enabled () then begin
      Obs.Histogram.observe h_commit (Int64.to_float t.commit_ns);
      Obs.Counter.incr m_epochs;
      Obs.Gauge.set g_window (float_of_int (Hashtbl.length t.resident))
    end

  let feed_row t raw =
    if t.final <> None then invalid_arg (K.name ^ ": row fed after finish");
    if Array.length raw <> t.threads then
      invalid_arg (K.name ^ ": wrong row width");
    let epoch = t.fed in
    Hashtbl.replace t.resident epoch { raw; sums = summarize t ~epoch raw };
    t.fed <- epoch + 1;
    t.hwm <- max t.hwm (Hashtbl.length t.resident);
    (* Gated so the null-sink hot path never boxes the float. *)
    if Obs.enabled () then begin
      Obs.Counter.add m_blocks t.threads;
      let occ = float_of_int (Hashtbl.length t.resident) in
      Obs.Gauge.set g_window occ;
      Obs.Gauge.set_max g_window_hwm occ
    end;
    (* Epoch l is processable once row l+1, its trailing wing, is in. *)
    while t.processed <= t.fed - 2 do
      process t
    done

  let finish t =
    match t.final with
    | Some r -> r
    | None ->
      (* An empty feed still owns one (empty) epoch, as in
         [Epochs.of_program]. *)
      if t.fed = 0 then feed_row t (Array.make t.threads [||]);
      while t.processed < t.fed do
        process t
      done;
      let r = K.report t.k ~row:(summary_row t) ~epochs:t.fed in
      t.final <- Some r;
      r

  let run ?pool env params epochs =
    let t = create ?pool ~threads:(Epochs.threads epochs) env params in
    Epochs.iter_rows epochs (feed_row t);
    finish t

  (* ---------------- Checkpointing ---------------- *)

  let encode t =
    let w = W.create () in
    W.varint w t.threads;
    K.put_params w t.params;
    W.varint w t.fed;
    W.varint w t.processed;
    K.put_body w t.k;
    Hashtbl.fold (fun l r acc -> (l, r.raw) :: acc) t.resident []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> W.list w (fun w (l, raw) ->
           W.varint w l;
           W.array w (fun w -> W.array w Tracing.Trace_codec.put_instr) raw);
    W.contents w

  let decode ?pool env s =
    let corrupt m = raise (R.Corrupt m) in
    match
      let r = R.of_string s in
      let threads = R.varint r in
      if threads <= 0 then corrupt "zero threads";
      let params = K.get_params r in
      let fed = R.varint r in
      let processed = R.varint r in
      if processed <> max 0 (fed - 1) then
        corrupt "processed epochs disagree with the rows fed";
      let k = K.get_body r ~threads ~processed env params in
      let rows =
        R.list r (fun r ->
            let l = R.varint r in
            let raw = R.array r (fun r -> R.array r Tracing.Trace_codec.read_instr) in
            if Array.length raw <> threads then corrupt "instr row width mismatch";
            (l, raw))
      in
      R.expect_end r;
      (* Exactly the rows the next pass reads: a missing one would
         surface as a crash in the next [feed_row]. *)
      let first = max 0 (processed - K.rows_behind) in
      if List.map fst rows <> List.init (fed - first) (( + ) first) then
        corrupt "resident rows disagree with the cursors";
      let t =
        make ?pool ~threads ~params ~k ~fed ~processed
          (Hashtbl.create 8)
      in
      List.iter
        (fun (l, raw) ->
          Hashtbl.replace t.resident l { raw; sums = summarize t ~epoch:l raw })
        rows;
      t.hwm <- Hashtbl.length t.resident;
      t
    with
    | t -> Ok t
    | exception R.Corrupt m -> Error (K.name ^ " state: " ^ m)
end
