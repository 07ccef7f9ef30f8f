module AC = Lifeguards.Addrcheck
module IC = Lifeguards.Initcheck
module TC = Lifeguards.Taintcheck
module RC = Lifeguards.Racecheck
module IS = Butterfly.Interval_set

type lifeguard = Addrcheck | Initcheck | Taintcheck | Racecheck

let lifeguard_to_string = function
  | Addrcheck -> "addrcheck"
  | Initcheck -> "initcheck"
  | Taintcheck -> "taintcheck"
  | Racecheck -> "racecheck"

let all_lifeguards = [ Addrcheck; Initcheck; Taintcheck; Racecheck ]

let profile_of = function
  | Addrcheck -> Grid_gen.Alloc
  | Initcheck -> Grid_gen.Init
  | Taintcheck -> Grid_gen.Taint
  | Racecheck -> Grid_gen.Racy

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
  lifeguard : lifeguard;
  subject : string;
  details : string list;
}

let pp_mismatch ppf m =
  Format.fprintf ppf "@[<v2>[%s] %s%a@]"
    (lifeguard_to_string m.lifeguard)
    m.subject
    (fun ppf ds -> List.iter (Format.fprintf ppf "@,%s") ds)
    m.details

(* ------------------------------------------------------------------ *)
(* Canonical report fingerprints.  Everything observable goes in: the
   error list in order, totals, per-block statistics and SOS history.
   Two drivers agreeing on the fingerprint agree on the whole report. *)

let fp_stats pp_cell ppf grid =
  Array.iteri
    (fun t row ->
      Array.iteri (fun l cell -> Format.fprintf ppf "(%d,%d)%a " t l pp_cell cell) row)
    grid

let fp_addrcheck (r : AC.report) =
  Format.asprintf "flagged=%d/%d errors=[%a] sos=[%a] stats=[%a]"
    r.flagged_accesses r.total_accesses
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " AC.pp_error))
    r.errors
    (fun ppf -> Array.iter (Format.fprintf ppf "%a; " IS.pp))
    r.sos
    (fp_stats (fun ppf (s : AC.block_stats) ->
         Format.fprintf ppf "%d/%d/%d" s.instrs s.mem_events s.flagged_events))
    r.block_stats

let fp_initcheck (r : IC.report) =
  Format.asprintf "flagged=%d/%d errors=[%a] sos=[%a]" r.flagged_reads
    r.total_reads
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " IC.pp_error))
    r.errors
    (fun ppf -> Array.iter (Format.fprintf ppf "%a; " IS.pp))
    r.sos

let fp_taintcheck (r : TC.report) =
  Format.asprintf "errors=[%a] sos_tainted=[%a] stats=[%a]"
    (fun ppf -> List.iter (Format.fprintf ppf "%a; " TC.pp_error))
    r.errors
    (fun ppf ->
      Array.iter (fun xs ->
          List.iter (Format.fprintf ppf "%d,") xs;
          Format.fprintf ppf "; "))
    r.sos_tainted
    (fp_stats (fun ppf (s : TC.block_stats) ->
         Format.fprintf ppf "%d/%d/%d" s.instrs s.mem_events s.checks_resolved))
    r.block_stats

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

let check_drivers lifeguard pools g =
  let epochs = Grid.epochs g in
  (* The pooled schedule, on every supplied pool, must reproduce the
     sequential baseline byte for byte.  The baseline itself is not an
     entry. *)
  let runs run_fp = List.map (fun p -> (pool_label p, run_fp p)) pools in
  match lifeguard with
  | Addrcheck ->
    let baseline = fp_addrcheck (AC.run epochs) in
    driver_divergences lifeguard ~baseline
      (runs (fun pool -> fp_addrcheck (AC.run ~pool epochs)))
  | Initcheck ->
    let baseline = fp_initcheck (IC.run epochs) in
    driver_divergences lifeguard ~baseline
      (runs (fun pool -> fp_initcheck (IC.run ~pool epochs)))
  | Racecheck ->
    (* The baseline here is the butterfly batch driver, and the
       independent brute-force reference [Racecheck_seq.check] joins the
       matrix as an extra entry — so a divergence between the windowed
       analysis and the reference semantics is caught alongside driver
       bugs. *)
    let baseline = RC.fingerprint (RC.run epochs) in
    driver_divergences lifeguard ~baseline
      (( "reference",
         RC.fingerprint (Lifeguards.Racecheck_seq.check epochs) )
      :: runs (fun pool -> RC.fingerprint (RC.run ~pool epochs)))
  | Taintcheck ->
    (* Per analysis variant: every pool must agree with the sequential
       loop under every (chase, phase) setting. *)
    List.concat_map
      (fun (sequential, two_phase, vlabel) ->
        let baseline =
          fp_taintcheck (TC.run ~sequential ~two_phase epochs)
        in
        driver_divergences lifeguard ~baseline
          (List.map
             (fun p ->
               ( Printf.sprintf "%s[%s]" (pool_label p) vlabel,
                 fp_taintcheck (TC.run ~sequential ~two_phase ~pool:p epochs)
               ))
             pools))
      [
        (true, true, "sc,two-phase");
        (false, true, "relaxed,two-phase");
        (true, false, "sc,one-phase");
      ]

(* ------------------------------------------------------------------ *)
(* Soundness vs the sequential oracle (Theorems 6.1, 6.2): replay valid
   orderings through the single-trace lifeguard and require the
   butterfly report to be a superset, per memory model. *)

let check_oracle config lifeguard g =
  let p = Grid.to_program g in
  List.filter_map
    (fun model ->
      let verdict =
        match lifeguard with
        | Addrcheck ->
          Lifeguards.Oracle.addrcheck_zero_false_negatives ~model
            ~cap:config.oracle_cap ~samples:config.oracle_samples
            ~seed:config.oracle_seed p
        | Initcheck ->
          Lifeguards.Oracle.initcheck_zero_false_negatives ~model
            ~cap:config.oracle_cap ~samples:config.oracle_samples
            ~seed:config.oracle_seed p
        | Taintcheck ->
          let sequential =
            Memmodel.Consistency.equal model Memmodel.Consistency.Sequential
          in
          Lifeguards.Oracle.taintcheck_zero_false_negatives ~model ~sequential
            ~cap:config.oracle_cap ~samples:config.oracle_samples
            ~seed:config.oracle_seed p
        | Racecheck
          when not
                 (Memmodel.Consistency.equal model
                    Memmodel.Consistency.Sequential) ->
          (* The race oracle's happens-before graph assumes program order
             is respected, so relaxed replays are not a sound ground
             truth; skip them (see {!Oracle.racecheck_zero_false_negatives}). *)
          {
            Lifeguards.Oracle.sound = true;
            orderings_checked = 0;
            exhaustive = true;
            missed = [];
          }
        | Racecheck ->
          Lifeguards.Oracle.racecheck_zero_false_negatives ~model
            ~cap:config.oracle_cap ~samples:config.oracle_samples
            ~seed:config.oracle_seed p
      in
      if verdict.sound then None
      else
        Some
          {
            lifeguard;
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
  check_drivers lifeguard pools g
  @ check_oracle config lifeguard g

let snapshot_tag = function
  | Addrcheck -> Recovery.Snapshot.Addrcheck
  | Initcheck -> Recovery.Snapshot.Initcheck
  | Taintcheck -> Recovery.Snapshot.Taintcheck
  | Racecheck -> Recovery.Snapshot.Racecheck

let check_recovery ?pool ?(every = 1) ?crash_at ?(seed = 0) lifeguard g =
  let path = Filename.temp_file "bfly-ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  match
    Recovery.Crash_sim.run ?pool ?crash_at ~seed ~every ~path
      (snapshot_tag lifeguard) (Grid.epochs g)
  with
  | Error m ->
    [ { lifeguard; subject = "crash-recovery: resume failed"; details = [ m ] } ]
  | Ok o when not o.Recovery.Crash_sim.equal ->
    [
      {
        lifeguard;
        subject =
          Printf.sprintf
            "crash-recovery: crash at epoch %d, resumed from snapshot at %d"
            o.Recovery.Crash_sim.crash_epoch o.Recovery.Crash_sim.resumed_from;
        details =
          [
            "straight: " ^ o.Recovery.Crash_sim.straight_fp;
            "resumed:  " ^ o.Recovery.Crash_sim.resumed_fp;
          ];
      };
    ]
  | Ok _ -> []
