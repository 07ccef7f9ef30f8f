(** Canonical JSON rendering of lifeguard reports.

    One line per report, identical whether produced by the batch CLI's
    [--json] flag or a daemon's [REPORT] frame — the multi-tenant
    differential battery compares the two byte-for-byte, so both paths
    must go through these functions.  [checked] counts the lifeguard's
    unit of work (memory events, reads, resolved taint checks,
    conflicting pairs); [flagged] the errors it raised. *)

val addrcheck : Lifeguards.Addrcheck.report -> string
val initcheck : Lifeguards.Initcheck.report -> string
val taintcheck : Lifeguards.Taintcheck.report -> string
val racecheck : Lifeguards.Racecheck.report -> string

(** {2 Engines}

    One table from a lifeguard to its engine and its two renderings.
    The batch CLI subcommands, [stats] and the daemon's sessions all
    build their engine here, so no caller matches on the lifeguard. *)

type engine =
  | Engine : {
      ops : ('s, 'r) Recovery.Runner.ops;
      json : 'r -> string;  (** the canonical line above *)
      text : 'r -> string;
          (** the subcommands' human-readable report, newline-terminated *)
    }
      -> engine

val engine :
  ?pool:Butterfly.Domain_pool.t ->
  relaxed:bool ->
  Recovery.Snapshot.lifeguard ->
  engine
(** [pool] runs the engine's pass 2 on the caller's domain pool;
    [relaxed] selects TaintCheck's relaxed-consistency chase and is
    ignored by the other lifeguards. *)

(** {2 Pieces}

    Exposed for the CLI, which also embeds error objects in its
    [--stats=json] stream. *)

val json_of_instr_id : Butterfly.Instr_id.t -> Obs.Json.t
val json_of_intervals : Butterfly.Interval_set.t -> Obs.Json.t

val lifeguard_json :
  lifeguard:string ->
  checked:int ->
  flagged:int ->
  errors:Obs.Json.t list ->
  Obs.Json.t

val json_of_addrcheck_error : Lifeguards.Addrcheck.error -> Obs.Json.t
val json_of_initcheck_error : Lifeguards.Initcheck.error -> Obs.Json.t
val json_of_taintcheck_error : Lifeguards.Taintcheck.error -> Obs.Json.t
val json_of_race : Lifeguards.Racecheck.race -> Obs.Json.t
