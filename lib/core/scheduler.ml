let pass2_epoch ?pool ~threads ~pass2 ~commit2 l =
  let task tid =
    Obs.Scope.with_scope ~epoch:l ~tid ~phase:"pass2" (fun () ->
        pass2 ~epoch:l ~tid)
  in
  match pool with
  | None ->
    for tid = 0 to threads - 1 do
      commit2 ~epoch:l ~tid (task tid)
    done
  | Some pool ->
    (* Submit in tid order, commit in tid order: a task that raised
       re-raises from [await] at its own commit point, after every
       earlier thread's result has been committed. *)
    let futs =
      Array.init threads (fun tid ->
          Domain_pool.async pool (fun () -> task tid))
    in
    Array.iteri
      (fun tid fut -> commit2 ~epoch:l ~tid (Domain_pool.await fut))
      futs

(* ------------------------------------------------------------------ *)

module Make (P : Dataflow.PROBLEM) = struct
  module D = Dataflow.Make (P)

  (* Telemetry: same metric names as the batch driver, distinguished by
     [driver=streaming]; window accounting is streaming-only. *)
  let obs_labels = [ ("problem", P.name); ("driver", "streaming") ]
  let m_epochs = Obs.Counter.make ~labels:obs_labels "butterfly.epochs_processed"
  let m_instrs = Obs.Counter.make ~labels:obs_labels "butterfly.pass2_instrs"
  let m_blocks = Obs.Counter.make ~labels:obs_labels "scheduler.blocks_closed"
  let g_window = Obs.Gauge.make ~labels:obs_labels "scheduler.window_occupancy"
  let g_window_hwm =
    Obs.Gauge.make ~labels:obs_labels "scheduler.window_occupancy_hwm"
  let sp_pass1 = Obs.Span.make ~labels:obs_labels "butterfly.pass1_summarize.ns"
  let sp_meet = Obs.Span.make ~labels:obs_labels "butterfly.side_in_meet.ns"
  let sp_lsos = Obs.Span.make ~labels:obs_labels "butterfly.lsos.ns"
  let sp_pass2 = Obs.Span.make ~labels:obs_labels "butterfly.pass2_block.ns"

  type t = {
    threads : int;
    pool : Domain_pool.t option;
    on_instr : D.instr_view -> unit;
    summaries : (int, D.block_summary array) Hashtbl.t; (* epoch -> row *)
    epoch_sums : (int, D.epoch_summary) Hashtbl.t;
    sos_tbl : (int, D.Set.t) Hashtbl.t;
    mutable fed : int; (* rows fed *)
    mutable sos_filled : int; (* SOS_l known for l <= sos_filled *)
    mutable processed : int; (* epochs whose pass 2 has run *)
    mutable hwm : int;
    mutable finished : bool;
  }

  let create ?pool ~threads ~on_instr () =
    if threads <= 0 then invalid_arg "Scheduler.create: threads must be > 0";
    let t =
      {
        threads;
        pool;
        on_instr;
        summaries = Hashtbl.create 8;
        epoch_sums = Hashtbl.create 16;
        sos_tbl = Hashtbl.create 16;
        fed = 0;
        sos_filled = 1;
        processed = 0;
        hwm = 0;
        finished = false;
      }
    in
    Hashtbl.replace t.sos_tbl 0 D.Set.empty;
    Hashtbl.replace t.sos_tbl 1 D.Set.empty;
    t

  let threads t = t.threads

  (* Rows outside the execution read as empty, as the grid does; a row
     the window has retired is a sequencing bug, not an empty row. *)
  let summary_row t epoch =
    match Hashtbl.find_opt t.summaries epoch with
    | Some row -> row
    | None ->
      if epoch >= 0 && epoch < t.fed then
        invalid_arg "Scheduler.summary_row: row retired from the window";
      Array.init t.threads (fun tid -> D.summarize (Block.empty ~epoch ~tid))

  (* GEN_l/KILL_l for epoch [e], cached; requires summary rows e-1 and e
     (empty rows are fine at the boundaries). *)
  let epoch_sum t e =
    match Hashtbl.find_opt t.epoch_sums e with
    | Some s -> s
    | None ->
      let s =
        D.epoch_summary
          ~prev:(if e = 0 then None else Some (summary_row t (e - 1)))
          ~cur:(summary_row t e)
      in
      Hashtbl.replace t.epoch_sums e s;
      s

  let sos_at t l =
    while t.sos_filled < l do
      let s = t.sos_filled + 1 in
      let prev = Hashtbl.find t.sos_tbl (s - 1) in
      Hashtbl.replace t.sos_tbl s
        (D.sos_next ~sos_prev:prev ~two_back:(epoch_sum t (s - 2)));
      t.sos_filled <- s
    done;
    Hashtbl.find t.sos_tbl l

  (* One thread's share of pass 2 over epoch [p]: it reads only its
     arguments — [rows.(i)] is the summary row of epoch [p - 2 + i] — and
     hands the body's views to [emit] in instruction order. *)
  let pass2_thread ~sos ~(rows : D.block_summary array array) ~tid ~emit =
    let wings = ref [] in
    for i = 3 downto 1 do
      (* epochs p+1 downto p-1 *)
      for t' = Array.length rows.(i) - 1 downto 0 do
        if t' <> tid then wings := rows.(i).(t') :: !wings
      done
    done;
    let side_in = Obs.Span.time sp_meet (fun () -> D.side_in ~wings:!wings) in
    let lsos0 =
      Obs.Span.time sp_lsos (fun () ->
          D.lsos ~sos ~head:rows.(1).(tid) ~two_back_row:rows.(0) ~tid)
    in
    let body = rows.(2).(tid).D.block in
    Obs.Counter.add m_instrs (Block.length body);
    Obs.Span.time sp_pass2 (fun () -> D.iter_block ~side_in ~lsos0 ~sos emit body)

  (* Second pass over epoch [p]: its trailing row p+1 has been fed (or
     the run has finished and the missing row is empty). *)
  let process_epoch t p =
    let sos = sos_at t p in
    let rows = Array.init 4 (fun i -> summary_row t (p - 2 + i)) in
    (* A pool task buffers its block's views for the master's commit.
       Without a pool each task is committed right after it runs, so it
       hands its views straight to [on_instr]: buffered, views holding
       freshly built fact sets outlive minor collections and get promoted,
       which doubled the sequential run time of reaching definitions. *)
    let pass2 ~epoch:_ ~tid =
      match t.pool with
      | None ->
        pass2_thread ~sos ~rows ~tid ~emit:t.on_instr;
        []
      | Some _ ->
        let views = ref [] in
        pass2_thread ~sos ~rows ~tid ~emit:(fun v -> views := v :: !views);
        List.rev !views
    in
    pass2_epoch ?pool:t.pool ~threads:t.threads ~pass2
      ~commit2:(fun ~epoch ~tid views ->
        Obs.Scope.with_scope ~epoch ~tid ~phase:"commit" (fun () ->
            List.iter t.on_instr views))
      p;
    (* Shrink the window: summary row p-2 has served its last purpose
       (epoch_sum p-1 is cached by sos_at). *)
    ignore (epoch_sum t (max 0 (p - 1)));
    Hashtbl.remove t.summaries (p - 2);
    t.processed <- p + 1;
    if Obs.enabled () then begin
      Obs.Counter.incr m_epochs;
      Obs.Gauge.set g_window (float_of_int (Hashtbl.length t.summaries))
    end

  let feed_row t row =
    if t.finished then invalid_arg "Scheduler.feed_row: already finished";
    if Array.length row <> t.threads then
      invalid_arg "Scheduler.feed_row: wrong row width";
    let epoch = t.fed in
    Hashtbl.replace t.summaries epoch
      (Array.mapi
         (fun tid instrs ->
           Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
               Obs.Span.time sp_pass1 (fun () ->
                   D.summarize (Block.make ~epoch ~tid instrs))))
         row);
    t.fed <- epoch + 1;
    t.hwm <- max t.hwm (Hashtbl.length t.summaries);
    (* Gated so the null-sink hot path never boxes the float. *)
    if Obs.enabled () then begin
      Obs.Counter.add m_blocks t.threads;
      let occ = float_of_int (Hashtbl.length t.summaries) in
      Obs.Gauge.set g_window occ;
      Obs.Gauge.set_max g_window_hwm occ
    end;
    while t.processed <= t.fed - 2 do
      process_epoch t t.processed
    done

  let finish t =
    if not t.finished then begin
      (* An empty feed still owns one (empty) epoch, as in
         [Epochs.of_program]. *)
      if t.fed = 0 then feed_row t (Array.make t.threads [||]);
      t.finished <- true;
      while t.processed < t.fed do
        process_epoch t t.processed
      done
    end

  let sos t = sos_at t (t.processed + 1)

  let sos_history t =
    Array.init (t.processed + 2) (fun l -> sos_at t l)

  let epochs_completed t = t.processed
  let max_resident_epochs t = t.hwm

  (* ---------------- Checkpointing ----------------

     A scheduler is durable state plus transient plumbing.  The durable
     part is exactly the bounded sliding window: the resident summary
     rows (each carrying its block's instructions), the epoch summaries
     and SOS levels computed so far and the cursor counters.  The pool
     and the [on_instr] sink are re-supplied on restore. *)

  type set_codec = {
    put_set : Tracing.Binio.W.t -> D.Set.t -> unit;
    get_set : Tracing.Binio.R.t -> D.Set.t;
  }

  let sorted_entries tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let encode_state ~set t =
    let module W = Tracing.Binio.W in
    let w = W.create () in
    let put_summary w (s : D.block_summary) =
      W.array w Tracing.Trace_codec.put_instr s.D.block.Block.instrs;
      set.put_set w s.D.gen;
      set.put_set w s.D.kill;
      set.put_set w s.D.gen_union;
      set.put_set w s.D.kill_union
    in
    W.varint w t.threads;
    W.varint w t.fed;
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w put_summary row)
      (sorted_entries t.summaries);
    W.list w
      (fun w (epoch, (s : D.epoch_summary)) ->
        W.varint w epoch;
        set.put_set w s.D.gen_l;
        set.put_set w s.D.kill_l)
      (sorted_entries t.epoch_sums);
    W.list w
      (fun w (l, s) ->
        W.varint w l;
        set.put_set w s)
      (sorted_entries t.sos_tbl);
    W.varint w t.sos_filled;
    W.varint w t.processed;
    W.varint w t.hwm;
    W.bool w t.finished;
    W.contents w

  let decode_state ~set ?pool ~on_instr s =
    let module R = Tracing.Binio.R in
    let r = R.of_string s in
    let threads = R.varint r in
    if threads <= 0 then raise (R.Corrupt "scheduler state: bad thread count");
    let fed = R.varint r in
    let tbl_of entries =
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
      tbl
    in
    let summaries =
      tbl_of
        (R.list r (fun r ->
             let epoch = R.varint r in
             (* The row's length prefix, as [W.array] wrote it. *)
             if R.varint r <> threads then
               raise (R.Corrupt "scheduler state: ragged summary row");
             ( epoch,
               Array.init threads (fun tid ->
                   let instrs = R.array r Tracing.Trace_codec.read_instr in
                   let gen = set.get_set r in
                   let kill = set.get_set r in
                   let gen_union = set.get_set r in
                   let kill_union = set.get_set r in
                   let block = Block.make ~epoch ~tid instrs in
                   { D.block; gen; kill; gen_union; kill_union }) )))
    in
    let epoch_sums =
      tbl_of
        (R.list r (fun r ->
             let epoch = R.varint r in
             let gen_l = set.get_set r in
             let kill_l = set.get_set r in
             (epoch, { D.gen_l; kill_l })))
    in
    let sos_tbl =
      tbl_of
        (R.list r (fun r ->
             let l = R.varint r in
             (l, set.get_set r)))
    in
    let sos_filled = R.varint r in
    let processed = R.varint r in
    let hwm = R.varint r in
    let finished = R.bool r in
    R.expect_end r;
    {
      threads;
      pool;
      on_instr;
      summaries;
      epoch_sums;
      sos_tbl;
      fed;
      sos_filled;
      processed;
      hwm;
      finished;
    }

  let run_epochs ?pool ~on_instr epochs =
    let t = create ?pool ~threads:(Epochs.threads epochs) ~on_instr () in
    Epochs.iter_rows epochs (feed_row t);
    finish t;
    t
end
