(** Canonical JSON rendering of lifeguard reports.

    One line per report, identical whether produced by the batch CLI's
    [--json] flag or a daemon's [REPORT] frame — the multi-tenant
    differential battery compares the two byte-for-byte, so both paths
    must go through these functions.  [checked] counts the lifeguard's
    unit of work (memory events, reads, resolved taint checks,
    conflicting pairs); [flagged] the errors it raised.

    Each renderer writes its line straight into one buffer, with no
    intermediate {!Obs.Json} tree: the keys and string values are
    literals with nothing to escape.  The line is byte for byte what
    {!Obs.Json.to_string} prints for the same object, and parses back
    with {!Obs.Json.of_string} ([test/test_serve.ml] checks both on
    random reports). *)

val addrcheck : Lifeguards.Addrcheck.report -> string
val initcheck : Lifeguards.Initcheck.report -> string
val taintcheck : Lifeguards.Taintcheck.report -> string
val racecheck : Lifeguards.Racecheck.report -> string

(** {2 The lifeguard table}

    One entry per {!Recovery.Snapshot.lifeguard}: everything the rest of
    the system needs to know about a lifeguard.  The batch CLI
    subcommands, [stats], the daemon's sessions and the QA differential
    battery all read their engine, renderers and checks from here, so no
    caller matches on the lifeguard.  Adding a lifeguard is its module
    under [lib/lifeguards], a constructor and byte in
    {!Recovery.Snapshot}, and one entry here ({!find} is an exhaustive
    match, so the compiler points at it). *)

type oracle =
  model:Memmodel.Consistency.t ->
  cap:int ->
  samples:int ->
  seed:int ->
  Tracing.Program.t ->
  Lifeguards.Oracle.verdict
(** The Theorem 6.1/6.2 check under one memory model: replay the valid
    orderings (up to [cap], else [samples] seeded by [seed]) through the
    sequential lifeguard and require the butterfly report to cover every
    finding. *)

type ('s, 'r) entry = {
  tag : Recovery.Snapshot.lifeguard;
  ops :
    ?pool:Butterfly.Domain_pool.t ->
    relaxed:bool ->
    unit ->
    ('s, 'r) Recovery.Runner.ops;
      (** The engine.  [pool] runs its pass 2 on the caller's domain
          pool; [relaxed] selects TaintCheck's relaxed-consistency chase
          and is ignored by the other lifeguards. *)
  json : 'r -> string;  (** the canonical line above *)
  text : 'r -> string;
      (** the subcommands' human-readable report, newline-terminated *)
  variants :
    (string
    * (?pool:Butterfly.Domain_pool.t -> unit -> ('s, 'r) Recovery.Runner.ops))
    list;
      (** The analysis settings the differential battery checks, each
          with its label: TaintCheck's three (chase × phase) settings;
          one unlabelled ([""]) default for the others. *)
  reference : (Butterfly.Epochs.t -> 'r) option;
      (** An independent implementation of the same report, which the
          battery compares against the sequential engine. *)
  oracle : oracle;
}

type t = Entry : ('s, 'r) entry -> t

val taintcheck_variants : (string * Lifeguards.Taintcheck.params) list
(** TaintCheck's labelled analysis settings, in the order of its
    entry's [variants]: ["sc,two-phase"], ["relaxed,two-phase"],
    ["sc,one-phase"]. *)

val find : Recovery.Snapshot.lifeguard -> t
