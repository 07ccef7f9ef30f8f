type t = {
  blocks : Block.t array array; (* blocks.(epoch).(tid) *)
  threads : int;
}

let of_blocks per_thread =
  let threads = Array.length per_thread in
  if threads = 0 then invalid_arg "Epochs.of_blocks: no threads";
  let num_epochs =
    Array.fold_left (fun m bs -> max m (List.length bs)) 1 per_thread
  in
  let blocks =
    Array.init num_epochs (fun l ->
        Array.init threads (fun tid ->
            match List.nth_opt per_thread.(tid) l with
            | Some instrs -> Block.make ~epoch:l ~tid instrs
            | None -> Block.empty ~epoch:l ~tid))
  in
  { blocks; threads }

let of_program p =
  of_blocks
    (Array.init (Tracing.Program.threads p) (fun t ->
         Tracing.Trace.blocks (Tracing.Program.trace p t)))

let threads t = t.threads
let num_epochs t = Array.length t.blocks

let block t ~epoch ~tid =
  if tid < 0 || tid >= t.threads then invalid_arg "Epochs.block: bad tid";
  if epoch < 0 || epoch >= num_epochs t then Block.empty ~epoch ~tid
  else t.blocks.(epoch).(tid)

let head t ~epoch ~tid = block t ~epoch:(epoch - 1) ~tid
let tail t ~epoch ~tid = block t ~epoch:(epoch + 1) ~tid

let wings t ~epoch ~tid =
  let acc = ref [] in
  for l = epoch + 1 downto epoch - 1 do
    for t' = t.threads - 1 downto 0 do
      if t' <> tid then acc := block t ~epoch:l ~tid:t' :: !acc
    done
  done;
  !acc

let epoch_blocks t ~epoch =
  List.init t.threads (fun tid -> block t ~epoch ~tid)

let iter_blocks f t = Array.iter (fun row -> Array.iter f row) t.blocks

let iter_rows t f =
  Array.iter (fun row -> f (Array.map (fun b -> b.Block.instrs) row)) t.blocks

let instr_count t =
  let n = ref 0 in
  iter_blocks (fun b -> n := !n + Block.length b) t;
  !n

let pp ppf t =
  Format.fprintf ppf "epochs: %d x %d threads, %d instrs" (num_epochs t)
    t.threads (instr_count t)
