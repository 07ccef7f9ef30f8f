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
  }

  let make ?pool ~threads ~params ~k ~fed ~processed resident =
    { threads; pool; params; k; resident; fed; processed; hwm = 0; final = None }

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

  (* Epoch [l]: seal, fan pass 2 out, commit in tid order, retire the
     row the kernel has read for the last time. *)
  let process t =
    let l = t.processed in
    let sealed = K.step t.k ~inline:(Option.is_none t.pool) ~row:(summary_row t) l in
    let raw = (Hashtbl.find t.resident l).raw in
    pass2_epoch ?pool:t.pool ~threads:t.threads
      ~pass2:(fun ~epoch ~tid ->
        K.eval_block sealed ~epoch ~tid (Block.make ~epoch ~tid raw.(tid)))
      ~commit2:(fun ~epoch ~tid o ->
        Obs.Scope.with_scope ~epoch ~tid ~phase:"commit" (fun () ->
            K.commit t.k ~epoch ~tid o);
        Obs.Counter.add m_instrs (Array.length raw.(tid)))
      l;
    Hashtbl.remove t.resident (l - K.rows_behind);
    t.processed <- l + 1;
    if Obs.enabled () then begin
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
