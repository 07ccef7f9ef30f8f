(** The generic butterfly dataflow framework (Sections 4.3 and 5).

    A forward dataflow problem is given by per-instruction GEN/KILL sets and
    a {e flavour}:

    - [`May] ("reaching definitions"-like): a fact reaches a point if it
      reaches along {e some} valid ordering.  Facts generated anywhere in a
      wing block are visible to the body (GEN-SIDE-OUT); killing is local
      (KILL-SIDE-OUT is conservatively useless).
    - [`Must] ("reaching expressions"-like): a fact reaches a point only if
      it reaches along {e all} valid orderings.  Kills anywhere in a wing
      are visible (KILL-SIDE-OUT); generation is local.

    {!Make} gives the equations of the two-pass algorithm: pass 1
    summarizes each block (local GEN/KILL plus side-out); the wing
    summaries are met into a side-in; pass 2 recomputes per-instruction
    state with wing information and drives the lifeguard's checks;
    epoch-level GEN{_l}/KILL{_l} (Section 5.1.1 / 5.2) update the Strongly
    Ordered State: SOS{_l} = GEN{_l-2} ∪ (SOS{_l-1} − KILL{_l-2}).
    {!Scheduler.Make} schedules them on the butterfly window; it is the
    one driver in the library.

    The fact-set representation is supplied by the problem; it must be
    closed under the boolean operations the equations perform (see
    {!Def_set} for the wildcard algebra reaching definitions needs, and
    {!Interval_set} for AddrCheck's ranges). *)

module type SET = sig
  type t

  val empty : t
  val is_empty : t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  val union_all : t list -> t
  (** n-ary union; may beat a fold of {!union} (the interval tree
      unions every operand into its tallest one). *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val put : Tracing.Binio.W.t -> t -> unit
  val get : Tracing.Binio.R.t -> t
  (** Checkpoint codec: the window's snapshots carry SOS levels. *)
end

module type PROBLEM = sig
  val name : string

  module Set : SET

  val flavour : [ `May | `Must ]
  val gen : Instr_id.t -> Tracing.Instr.t -> Set.t
  val kill : Instr_id.t -> Tracing.Instr.t -> Set.t
end

module Make (P : PROBLEM) : sig
  module Set : SET with type t = P.Set.t

  type block_summary = {
    block : Block.t;
    gen : Set.t;  (** Net block GEN{_l,t}: facts surviving to the block end. *)
    kill : Set.t;  (** Net block KILL{_l,t}. *)
    gen_union : Set.t;  (** ∪{_i} GEN{_l,t,i} — GEN-SIDE-OUT for [`May]. *)
    kill_union : Set.t;  (** ∪{_i} KILL{_l,t,i} — KILL-SIDE-OUT for [`Must]. *)
  }

  val summarize : Block.t -> block_summary
  (** Pass 1 over one block. *)

  val side_out : block_summary -> Set.t
  (** What this block exposes to bodies it wings, by flavour. *)

  val side_in : wings:block_summary list -> Set.t
  (** The meet (union) of the wings' side-outs. *)

  type epoch_summary = { gen_l : Set.t; kill_l : Set.t }

  val epoch_summary :
    prev:block_summary array option -> cur:block_summary array -> epoch_summary
  (** GEN{_l} and KILL{_l} from the epoch's block summaries ([cur]) and the
      previous epoch's ([prev], [None] for epoch 0). *)

  val sos_next : sos_prev:Set.t -> two_back:epoch_summary -> Set.t
  (** SOS{_l} = GEN{_l-2} ∪ (SOS{_l-1} − KILL{_l-2}). *)

  val lsos :
    sos:Set.t -> head:block_summary -> two_back_row:block_summary array ->
    tid:Tracing.Tid.t -> Set.t
  (** LSOS{_l,t} per Section 5.1.2 ([`May], including the resurrection
      clause for facts the head killed but epoch l-2 in another thread may
      re-generate) or Section 5.2.1 ([`Must]). *)

  type instr_view = {
    id : Instr_id.t;
    instr : Tracing.Instr.t;
    lsos_before : Set.t;  (** LSOS{_l,t,i}: local state, pass-1 view. *)
    side_in : Set.t;  (** The block's wing side-in. *)
    sos : Set.t;  (** SOS{_l}. *)
  }

  val in_before : instr_view -> Set.t
  (** IN{_l,t,i}, the pass-2 state with the wing side-in:
      [lsos_before ∪ side_in] for [`May], [lsos_before − side_in] for
      [`Must].  Built on demand, one set operation per call; a check that
      only asks whether a fact is in IN should probe [lsos_before] and
      [side_in] instead. *)

  val iter_block :
    side_in:Set.t ->
    lsos0:Set.t ->
    sos:Set.t ->
    (instr_view -> unit) ->
    Block.t ->
    unit
  (** The pass-2 inner loop over one block, run by the pass-2 task of
      {!Scheduler.Kernel}: threads the running LSOS through GEN/KILL and
      emits each instruction's view.  Per instruction it does the LSOS
      update only; the meet with the side-in is left to {!in_before},
      so a state change costs the GEN/KILL update (O(log n) on
      {!Interval_set}), never a pass over the whole LSOS. *)
end
