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
    buffers : Tracing.Instr.t list array; (* open block per thread, reversed *)
    completed : int array; (* closed blocks per thread *)
    summaries : (int, D.block_summary array) Hashtbl.t; (* epoch -> row *)
    pending : (int * int, D.block_summary Domain_pool.future) Hashtbl.t;
        (* pass-1 tasks in flight on the pool, keyed by (epoch, tid) *)
    blocks : (int, Block.t array) Hashtbl.t;
    epoch_sums : (int, D.epoch_summary) Hashtbl.t;
    sos_tbl : (int, D.Set.t) Hashtbl.t;
    mutable sos_filled : int; (* SOS_l known for l <= sos_filled *)
    mutable processed : int; (* epochs whose pass 2 has been launched *)
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
        buffers = Array.make threads [];
        completed = Array.make threads 0;
        summaries = Hashtbl.create 16;
        pending = Hashtbl.create 16;
        blocks = Hashtbl.create 16;
        epoch_sums = Hashtbl.create 16;
        sos_tbl = Hashtbl.create 16;
        sos_filled = 1;
        processed = 0;
        hwm = 0;
        finished = false;
      }
    in
    Hashtbl.replace t.sos_tbl 0 D.Set.empty;
    Hashtbl.replace t.sos_tbl 1 D.Set.empty;
    t

  let empty_summary_row t epoch =
    Array.init t.threads (fun tid -> D.summarize (Block.empty ~epoch ~tid))

  (* Commit any in-flight pass-1 results for this row.  Master-side only:
     rows handed to pool workers are always resolved first. *)
  let resolve_row t epoch row =
    if Hashtbl.length t.pending > 0 then
      for tid = 0 to t.threads - 1 do
        match Hashtbl.find_opt t.pending (epoch, tid) with
        | Some fut ->
          row.(tid) <- Domain_pool.await fut;
          Hashtbl.remove t.pending (epoch, tid)
        | None -> ()
      done;
    row

  let summary_row t epoch =
    if epoch < 0 then empty_summary_row t epoch
    else
      match Hashtbl.find_opt t.summaries epoch with
      | Some row -> resolve_row t epoch row
      | None -> empty_summary_row t epoch

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

  (* One thread's share of pass 2 over epoch [p].  [rows.(i)] is the
     resolved summary row of epoch [p - 2 + i]; with a pool this runs on a
     worker, so it touches only the read-only arguments (never [t]'s
     tables) and reports views through [emit]. *)
  let pass2_thread t ~sos ~rows ~body ~tid ~emit =
    let wings = ref [] in
    for i = 3 downto 1 do
      (* epochs p+1 downto p-1 *)
      let row : D.block_summary array = rows.(i) in
      for t' = t.threads - 1 downto 0 do
        if t' <> tid then wings := row.(t') :: !wings
      done
    done;
    let side_in = Obs.Span.time sp_meet (fun () -> D.side_in ~wings:!wings) in
    let head = rows.(1).(tid) in
    let lsos0 =
      Obs.Span.time sp_lsos (fun () ->
          D.lsos ~sos ~head ~two_back_row:rows.(0) ~tid)
    in
    Obs.Counter.add m_instrs (Block.length body);
    Obs.Span.time sp_pass2 (fun () ->
        D.iter_block ~side_in ~lsos0 ~sos emit body)

  (* Commit every in-flight pass-1 summary into its row, so the pool
     holds no work for this scheduler. *)
  let resolve_all t =
    Hashtbl.iter (fun epoch row -> ignore (resolve_row t epoch row)) t.summaries

  (* Second pass over epoch [p]: every thread's epoch-(p+1) summaries are
     available (or the run has finished and missing rows are empty). *)
  let process_epoch t p =
    let sos = sos_at t p in
    let body_row =
      match Hashtbl.find_opt t.blocks p with
      | Some row -> row
      | None -> Array.init t.threads (fun tid -> Block.empty ~epoch:p ~tid)
    in
    (* Resolve the four rows of the butterfly up front: pool workers must
       never await or touch the scheduler's tables. *)
    let rows = Array.init 4 (fun i -> summary_row t (p - 2 + i)) in
    (match t.pool with
    | None ->
      for tid = 0 to t.threads - 1 do
        Obs.Scope.with_scope ~epoch:p ~tid ~phase:"pass2" (fun () ->
            pass2_thread t ~sos ~rows ~body:body_row.(tid) ~tid ~emit:t.on_instr)
      done
    | Some pool ->
      (* Fan the per-thread work out, then deliver the buffered views in
         thread order: the observable sequence is byte-identical to the
         sequential path (epoch-major, thread-minor, instruction order). *)
      let views =
        Domain_pool.map_array pool
          (fun tid ->
            Obs.Scope.with_scope ~epoch:p ~tid ~phase:"pass2" (fun () ->
                let acc = ref [] in
                pass2_thread t ~sos ~rows ~body:body_row.(tid) ~tid
                  ~emit:(fun v -> acc := v :: !acc);
                List.rev !acc))
          (Array.init t.threads (fun tid -> tid))
      in
      Obs.Scope.with_scope ~epoch:p ~phase:"deliver" (fun () ->
          Array.iter (fun vs -> List.iter t.on_instr vs) views));
    (* Shrink the window: the body blocks are done; summary row p-2 has
       served its last purpose (epoch_sum p-1 is cached by sos_at). *)
    ignore (epoch_sum t (max 0 (p - 1)));
    Hashtbl.remove t.blocks p;
    Hashtbl.remove t.summaries (p - 2);
    t.processed <- p + 1;
    if Obs.enabled () then begin
      Obs.Counter.incr m_epochs;
      Obs.Gauge.set g_window (float_of_int (Hashtbl.length t.summaries))
    end

  let ready t = Array.fold_left min max_int t.completed

  let advance t =
    while ready t >= t.processed + 2 do
      process_epoch t t.processed
    done

  let close_block t tid =
    let epoch = t.completed.(tid) in
    let instrs = Array.of_list (List.rev t.buffers.(tid)) in
    t.buffers.(tid) <- [];
    let block = Block.make ~epoch ~tid instrs in
    let srow =
      match Hashtbl.find_opt t.summaries epoch with
      | Some row -> row
      | None ->
        let row = empty_summary_row t epoch in
        Hashtbl.replace t.summaries epoch row;
        row
    in
    (match t.pool with
    | None ->
      srow.(tid) <-
        Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
            Obs.Span.time sp_pass1 (fun () -> D.summarize block))
    | Some pool ->
      (* Pass 1 is per-block-local: it can run on a worker the moment the
         heartbeat closes the block, while the master keeps ingesting. *)
      Hashtbl.replace t.pending (epoch, tid)
        (Domain_pool.async pool (fun () ->
             Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
                 Obs.Span.time sp_pass1 (fun () -> D.summarize block)))));
    let brow =
      match Hashtbl.find_opt t.blocks epoch with
      | Some row -> row
      | None ->
        let row = Array.init t.threads (fun tid -> Block.empty ~epoch ~tid) in
        Hashtbl.replace t.blocks epoch row;
        row
    in
    brow.(tid) <- block;
    t.completed.(tid) <- epoch + 1;
    t.hwm <- max t.hwm (Hashtbl.length t.summaries);
    (* Gated so the null-sink hot path never boxes the float. *)
    if Obs.enabled () then begin
      Obs.Counter.incr m_blocks;
      let occ = float_of_int (Hashtbl.length t.summaries) in
      Obs.Gauge.set g_window occ;
      Obs.Gauge.set_max g_window_hwm occ
    end

  let feed t tid ev =
    if t.finished then invalid_arg "Scheduler.feed: already finished";
    if tid < 0 || tid >= t.threads then invalid_arg "Scheduler.feed: bad tid";
    match ev with
    | Tracing.Event.Instr i -> t.buffers.(tid) <- i :: t.buffers.(tid)
    | Tracing.Event.Heartbeat ->
      close_block t tid;
      advance t

  let feed_trace t tid trace =
    Array.iter (fun ev -> feed t tid ev) (Tracing.Trace.events trace)

  let finish t =
    if not t.finished then (
      t.finished <- true;
      (* Close trailing partial blocks and pad every thread to a common
         epoch count, mirroring Epochs.of_program's padding. *)
      for tid = 0 to t.threads - 1 do
        close_block t tid
      done;
      let target = Array.fold_left max 0 t.completed in
      for tid = 0 to t.threads - 1 do
        while t.completed.(tid) < target do
          close_block t tid
        done
      done;
      advance t;
      (* Drain: remaining epochs' tails are empty. *)
      while t.processed < target do
        process_epoch t t.processed
      done;
      resolve_all t)

  let sos t = sos_at t (t.processed + 1)

  let sos_history t =
    Array.init (t.processed + 2) (fun l -> sos_at t l)

  let epochs_completed t = t.processed
  let max_resident_epochs t = t.hwm

  (* ---------------- Checkpointing ----------------

     A scheduler is durable state plus transient plumbing.  The durable
     part is exactly the bounded sliding window: open buffers, closed-block
     counts, the resident summary/block/epoch-summary rows, the SOS levels
     computed so far and the cursor counters.  The transient part (pool,
     in-flight pass-1 futures, the [on_instr] sink) is re-supplied on
     restore — after quiescing, the pending table is empty by
     construction, so it never needs representing. *)

  type set_codec = {
    put_set : Tracing.Binio.W.t -> D.Set.t -> unit;
    get_set : Tracing.Binio.R.t -> D.Set.t;
  }

  let sorted_entries tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let encode_state ~set t =
    (* Resolve every in-flight pass-1 future: workers' results become
       master-side state, so the snapshot is self-contained. *)
    resolve_all t;
    let module W = Tracing.Binio.W in
    let w = W.create () in
    let put_instrs w instrs = W.array w Tracing.Trace_codec.put_instr instrs in
    let put_summary w (s : D.block_summary) =
      put_instrs w s.D.block.Block.instrs;
      set.put_set w s.D.gen;
      set.put_set w s.D.kill;
      set.put_set w s.D.gen_union;
      set.put_set w s.D.kill_union
    in
    W.varint w t.threads;
    Array.iter (fun b -> W.list w Tracing.Trace_codec.put_instr b) t.buffers;
    Array.iter (fun c -> W.varint w c) t.completed;
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w put_summary row)
      (sorted_entries t.summaries);
    W.list w
      (fun w (epoch, row) ->
        W.varint w epoch;
        W.array w (fun w (b : Block.t) -> put_instrs w b.Block.instrs) row)
      (sorted_entries t.blocks);
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
    let get_instrs r = R.array r Tracing.Trace_codec.read_instr in
    let threads = R.varint r in
    if threads <= 0 then raise (R.Corrupt "scheduler state: bad thread count");
    let buffers =
      Array.init threads (fun _ -> R.list r Tracing.Trace_codec.read_instr)
    in
    let completed = Array.init threads (fun _ -> R.varint r) in
    let tbl_of entries =
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
      tbl
    in
    let summaries =
      tbl_of
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row =
               R.array r (fun r ->
                   let instrs = get_instrs r in
                   let gen = set.get_set r in
                   let kill = set.get_set r in
                   let gen_union = set.get_set r in
                   let kill_union = set.get_set r in
                   (instrs, gen, kill, gen_union, kill_union))
             in
             if Array.length row <> threads then
               raise (R.Corrupt "scheduler state: ragged summary row");
             ( epoch,
               Array.mapi
                 (fun tid (instrs, gen, kill, gen_union, kill_union) ->
                   {
                     D.block = Block.make ~epoch ~tid instrs;
                     gen;
                     kill;
                     gen_union;
                     kill_union;
                   })
                 row )))
    in
    let blocks =
      tbl_of
        (R.list r (fun r ->
             let epoch = R.varint r in
             let row = R.array r get_instrs in
             if Array.length row <> threads then
               raise (R.Corrupt "scheduler state: ragged block row");
             (epoch, Array.mapi (fun tid instrs -> Block.make ~epoch ~tid instrs) row)))
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
      buffers;
      completed;
      summaries;
      pending = Hashtbl.create 16;
      blocks;
      epoch_sums;
      sos_tbl;
      sos_filled;
      processed;
      hwm;
      finished;
    }

  let run_epochs ?pool ~on_instr epochs =
    let threads = Epochs.threads epochs in
    let num_l = Epochs.num_epochs epochs in
    let t = create ?pool ~threads ~on_instr () in
    for l = 0 to num_l - 1 do
      for tid = 0 to threads - 1 do
        let b = Epochs.block epochs ~epoch:l ~tid in
        Array.iter
          (fun i -> feed t tid (Tracing.Event.Instr i))
          b.Block.instrs;
        (* No heartbeat after the final epoch: [finish] closes it, keeping
           the epoch count equal to the grid's. *)
        if l < num_l - 1 then feed t tid Tracing.Event.Heartbeat
      done
    done;
    finish t;
    t
end

(* ------------------------------------------------------------------ *)

module Wavefront = struct
  (* The batch two-pass driver.  Instead of stalling the whole pool at
     every epoch boundary, the master dispatches each task the moment its
     butterfly dependencies (Lemma 5.2) are committed, and commits
     results in the canonical epoch-major / thread-minor order so reports
     stay byte-identical to the inline (sequential) schedule.

     The dependence structure of a two-pass butterfly analysis:

     - pass 1 of block (l, t) is block-local: always ready;
     - pass 2 of block (l, t) reads the pass-1 facts of its wings and
       head — epochs l-1 .. l+1 — plus the epoch-l cross-block input
       (SOS / LASTCHECK), which [prepare l] seals after every pass-2
       result of epoch l-1 has been committed.

     So the master keeps pass-1 dispatch running [lookahead] epochs
     ahead of the pass-2 cursor: while the pool chews on epoch e's
     pass-2 tasks, it is also summarizing epochs e+2 .. e+lookahead-1 —
     the pipelining the epoch barrier forbids. *)

  let obs_labels = [ ("driver", "wavefront") ]
  let g_ready =
    Obs.Gauge.make ~labels:obs_labels "scheduler.wavefront.ready_queue"
  let sp_stall = Obs.Span.make ~labels:obs_labels "scheduler.wavefront.stall_ns"
  let m_overlap =
    Obs.Counter.make ~labels:obs_labels "scheduler.wavefront.overlapped_epochs"
  let m_p1_pipelined =
    Obs.Counter.make ~labels:obs_labels
      "scheduler.wavefront.pipelined_pass1_blocks"

  type phase = Pass1 | Pass2

  type probe_event =
    | Dispatched of { phase : phase; epoch : int; tid : int }
    | Committed of { phase : phase; epoch : int; tid : int }

  (* A dispatched task: ran inline (no pool) or in flight on a worker. *)
  type 'a join = Now of 'a | Fut of 'a Domain_pool.future

  let run ?pool ?lookahead ?probe ~num_epochs ~threads ~pass1 ~commit1
      ~prepare ~pass2 ~commit2 () =
    if threads <= 0 then invalid_arg "Wavefront.run: threads must be > 0";
    if num_epochs < 0 then invalid_arg "Wavefront.run: negative num_epochs";
    let lookahead =
      match lookahead with
      | Some k ->
        (* Pass 2 of epoch e reads pass-1 facts up to epoch e+1 (the tail
           wing), so dispatch must run at least two epochs ahead. *)
        if k < 2 then invalid_arg "Wavefront.run: lookahead must be >= 2";
        k
      | None -> (
        match pool with
        | Some p -> 2 + (2 * Domain_pool.size p)
        | None -> 2)
    in
    let probe = match probe with Some f -> f | None -> fun _ -> () in
    if pool <> None && Obs.enabled () then begin
      (* Materialize the pipeline metrics so clean runs still report them. *)
      Obs.Counter.add m_overlap 0;
      Obs.Counter.add m_p1_pipelined 0;
      Obs.Gauge.set g_ready 0.0;
      Obs.Span.time sp_stall ignore
    end;
    (* Eta-expanded so [submit] generalizes: it is used at the pass-1 and
       pass-2 result types. *)
    let submit f =
      match pool with
      | None -> Now (f ())
      | Some p -> Fut (Domain_pool.async p f)
    in
    let joined j =
      match j with
      | Now v -> v
      | Fut fut ->
        if Domain_pool.poll fut then Domain_pool.await fut
        else Obs.Span.time sp_stall (fun () -> Domain_pool.await fut)
    in
    (* Pass-1 pipeline: [p1.(l * threads + t)] holds the dispatched but
       not yet committed summary of block (l, t).  Both cursors are
       exclusive epoch frontiers. *)
    let p1 = Array.make (max 1 (num_epochs * threads)) None in
    let p1_dispatched = ref 0 in
    let p1_committed = ref 0 in
    let dispatch_p1_upto e =
      let e = min e num_epochs in
      while !p1_dispatched < e do
        let epoch = !p1_dispatched in
        for tid = 0 to threads - 1 do
          probe (Dispatched { phase = Pass1; epoch; tid });
          if pool <> None && !p1_committed < epoch && Obs.enabled () then
            Obs.Counter.incr m_p1_pipelined;
          p1.((epoch * threads) + tid) <-
            Some
              (submit (fun () ->
                   Obs.Scope.with_scope ~epoch ~tid ~phase:"pass1" (fun () ->
                       pass1 ~epoch ~tid)))
        done;
        incr p1_dispatched;
        if pool <> None && Obs.enabled () then
          Obs.Gauge.set g_ready
            (float_of_int ((!p1_dispatched - !p1_committed) * threads))
      done
    in
    let commit_p1_upto e =
      let e = min e num_epochs in
      while !p1_committed < e do
        let epoch = !p1_committed in
        for tid = 0 to threads - 1 do
          let k = (epoch * threads) + tid in
          match p1.(k) with
          | None -> assert false
          | Some j ->
            let v = joined j in
            p1.(k) <- None;
            commit1 ~epoch ~tid v;
            probe (Committed { phase = Pass1; epoch; tid })
        done;
        incr p1_committed;
        if pool <> None && Obs.enabled () then
          Obs.Gauge.set g_ready
            (float_of_int ((!p1_dispatched - !p1_committed) * threads))
      done
    in
    for epoch = 0 to num_epochs - 1 do
      (* Readiness: before epoch e's pass 2 is dispatched, the pass-1
         facts of every wing/head dependency (epochs <= e+1) are
         committed, and [prepare e] has sealed the cross-block input
         (every pass-2 result of e-1 committed on the previous turn). *)
      dispatch_p1_upto (epoch + lookahead);
      commit_p1_upto (epoch + 2);
      if pool <> None && !p1_dispatched > epoch + 2 && Obs.enabled () then
        Obs.Counter.incr m_overlap;
      prepare epoch;
      let joins =
        Array.init threads (fun tid ->
            probe (Dispatched { phase = Pass2; epoch; tid });
            submit (fun () ->
                Obs.Scope.with_scope ~epoch ~tid ~phase:"pass2" (fun () ->
                    pass2 ~epoch ~tid)))
      in
      Array.iteri
        (fun tid j ->
          commit2 ~epoch ~tid (joined j);
          probe (Committed { phase = Pass2; epoch; tid }))
        joins
    done;
    commit_p1_upto num_epochs
end
