module Snapshot = Recovery.Snapshot
module Runner = Recovery.Runner
module Report = Serve.Report

let profile_of : Snapshot.lifeguard -> Grid_gen.profile = function
  | Addrcheck -> Alloc
  | Initcheck -> Init
  | Taintcheck -> Taint
  | Racecheck -> Racy

type config = {
  oracle_cap : int;
  oracle_samples : int;
  oracle_seed : int;
  models : Memmodel.Consistency.t list;
}

let default_config =
  {
    oracle_cap = 240;
    oracle_samples = 24;
    oracle_seed = 7;
    models = Memmodel.Consistency.all;
  }

type mismatch = {
  lifeguard : Snapshot.lifeguard;
  subject : string;
  details : string list;
}

let pp_mismatch ppf m =
  Format.fprintf ppf "@[<v2>[%s] %s%a@]"
    (Snapshot.lifeguard_to_string m.lifeguard)
    m.subject
    (fun ppf ds -> List.iter (Format.fprintf ppf "@,%s") ds)
    m.details

(* ------------------------------------------------------------------ *)
(* Driver equivalence: every driver's fingerprint must equal the
   sequential baseline's. *)

let driver_divergences lifeguard ~baseline runs =
  List.filter_map
    (fun (label, fp) ->
      if String.equal fp baseline then None
      else
        Some
          {
            lifeguard;
            subject = Printf.sprintf "driver %s diverges from sequential" label;
            details =
              [ "sequential: " ^ baseline; label ^ ":  " ^ fp ];
          })
    runs

let pool_label p = Printf.sprintf "pooled(%d)" (Butterfly.Domain_pool.size p)

(* A variant's label, if it has one, tags every run of that variant. *)
let tagged label s = if label = "" then s else Printf.sprintf "%s[%s]" s label

let run_fp ops epochs =
  ops.Runner.fp
    (Runner.run ops ~threads:(Butterfly.Epochs.threads epochs)
       (Butterfly.Epochs.iter_rows epochs))

(* Per analysis variant, the pooled schedule on every supplied pool must
   reproduce the sequential baseline byte for byte; the baseline itself
   is not an entry.  An independent reference, where the lifeguard has
   one, joins the matrix first — so a divergence between the windowed
   analysis and the reference semantics is caught alongside driver
   bugs. *)
let check_drivers (Report.Entry e) pools g =
  let epochs = Grid.epochs g in
  List.concat_map
    (fun (label, (ops : ?pool:_ -> unit -> _)) ->
      let seq = ops () in
      let reference =
        match e.reference with
        | None -> []
        | Some check ->
          [ (tagged label "reference", seq.Runner.fp (check epochs)) ]
      in
      driver_divergences e.tag ~baseline:(run_fp seq epochs)
        (reference
        @ List.map
            (fun p ->
              (tagged label (pool_label p), run_fp (ops ~pool:p ()) epochs))
            pools))
    e.variants

(* ------------------------------------------------------------------ *)
(* Soundness vs the sequential oracle (Theorems 6.1, 6.2): replay valid
   orderings through the single-trace lifeguard and require the
   butterfly report to be a superset, per memory model. *)

let check_oracle config (Report.Entry e) g =
  let p = Grid.to_program g in
  List.filter_map
    (fun model ->
      let verdict =
        e.oracle ~model ~cap:config.oracle_cap ~samples:config.oracle_samples
          ~seed:config.oracle_seed p
      in
      if verdict.Lifeguards.Oracle.sound then None
      else
        Some
          {
            lifeguard = e.tag;
            subject =
              Printf.sprintf
                "unsound vs sequential oracle under %s (%d orderings%s): \
                 butterfly misses findings"
                (Memmodel.Consistency.to_string model)
                verdict.orderings_checked
                (if verdict.exhaustive then ", exhaustive" else ", sampled");
            details = verdict.missed;
          })
    config.models

let check ?(config = default_config) ?(pools = []) lifeguard g =
  let entry = Report.find lifeguard in
  check_drivers entry pools g @ check_oracle config entry g

(* Every analysis variant is killed and resumed. *)
let check_recovery ?pool ?(every = 1) ?crash_at ?(seed = 0) lifeguard g =
  let (Report.Entry e) = Report.find lifeguard in
  let path = Filename.temp_file "bfly-ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  List.concat_map
    (fun (label, ops) ->
      let what = tagged label "crash-recovery" in
      match
        Recovery.Crash_sim.run ?crash_at ~seed ~every ~path (ops ?pool ())
          (Grid.epochs g)
      with
      | Error m ->
        [ { lifeguard; subject = what ^ ": resume failed"; details = [ m ] } ]
      | Ok o when not o.Recovery.Crash_sim.equal ->
        [
          {
            lifeguard;
            subject =
              Printf.sprintf
                "%s: crash at epoch %d, resumed from snapshot at %d" what
                o.Recovery.Crash_sim.crash_epoch
                o.Recovery.Crash_sim.resumed_from;
            details =
              [
                "straight: " ^ o.Recovery.Crash_sim.straight_fp;
                "resumed:  " ^ o.Recovery.Crash_sim.resumed_fp;
              ];
          };
        ]
      | Ok _ -> [])
    e.variants
