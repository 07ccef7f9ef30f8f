module Epochs = Butterfly.Epochs

type outcome = {
  crash_epoch : int;
  resumed_from : int;
  snapshot_bytes : int;
  straight_fp : string;
  resumed_fp : string;
  equal : bool;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>crash at epoch %d, resumed from %d (%d snapshot bytes): %s@,straight: %s@,resumed:  %s@]"
    o.crash_epoch o.resumed_from o.snapshot_bytes
    (if o.equal then "reports identical" else "REPORTS DIVERGE")
    o.straight_fp o.resumed_fp

let crash_point ?crash_at ~seed ~num_epochs () =
  match crash_at with
  | Some k -> max 0 (min k num_epochs)
  | None ->
    let rng = Random.State.make [| 0xc4a5; seed |] in
    Random.State.int rng (num_epochs + 1)

let simulate (type s r) (ops : (s, r) Runner.ops) ?crash_at ~seed ~every ~path
    epochs =
  if every <= 0 then invalid_arg "Crash_sim.run: every must be > 0";
  let rows = Runner.rows_of epochs in
  let threads = Epochs.threads epochs in
  let crash_epoch = crash_point ?crash_at ~seed ~num_epochs:(Array.length rows) () in
  let source = Epochs.iter_rows epochs in
  let straight_fp = ops.Runner.fp (Runner.run ops ~threads source) in
  if Sys.file_exists path then Sys.remove path;
  (* The doomed run: its state is simply abandoned at the crash point,
     exactly like a killed process.  Only the snapshot file survives. *)
  let doomed = ops.Runner.create ~threads in
  for l = 0 to crash_epoch - 1 do
    ops.Runner.feed doomed rows.(l);
    if ops.Runner.fed doomed mod every = 0 then
      ignore (Runner.write_checkpoint ops ~path ~threads doomed)
  done;
  if Sys.file_exists path then (
    match Snapshot.read_file ~path with
    | Error m -> Error m
    | Ok (meta, payload) -> (
      match
        Runner.resume ops ~path ~threads ~num_rows:(Array.length rows) source
      with
      | Error m -> Error m
      | Ok report ->
        let resumed_fp = ops.Runner.fp report in
        Ok
          {
            crash_epoch;
            resumed_from = meta.Snapshot.next_epoch;
            snapshot_bytes = String.length (Snapshot.encode meta payload);
            straight_fp;
            resumed_fp;
            equal = String.equal straight_fp resumed_fp;
          }))
  else
    (* Crashed before the first checkpoint: recovery is a fresh run. *)
    let resumed_fp = ops.Runner.fp (Runner.run ops ~threads source) in
    Ok
      {
        crash_epoch;
        resumed_from = 0;
        snapshot_bytes = 0;
        straight_fp;
        resumed_fp;
        equal = String.equal straight_fp resumed_fp;
      }

let run ?pool ?crash_at ?(seed = 0) ~every ~path lifeguard epochs =
  let (Runner.Packed ops) = Runner.ops_of ?pool lifeguard in
  simulate ops ?crash_at ~seed ~every ~path epochs

let run_session ?pool ?crash_at ?seed ~every ~dir ~tenant lifeguard epochs =
  Obs.Scope.with_scope ~tenant (fun () ->
      run ?pool ?crash_at ?seed ~every
        ~path:(Snapshot.session_path ~dir ~tenant lifeguard)
        lifeguard epochs)
