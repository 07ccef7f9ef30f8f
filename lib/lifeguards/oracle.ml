module VO = Memmodel.Valid_ordering
module IS = Butterfly.Interval_set

type verdict = {
  sound : bool;
  orderings_checked : int;
  exhaustive : bool;
  missed : string list;
}

let grid_of_program p =
  Array.init (Tracing.Program.threads p) (fun t ->
      Tracing.Trace.blocks (Tracing.Program.trace p t))

(* Enumerate valid orderings if feasible, otherwise sample. *)
let orderings_of ?(model = Memmodel.Consistency.Sequential) ?(cap = 20_000)
    ?(samples = 200) ?(seed = 7) grid =
  let vo = VO.of_blocks ~model grid in
  let os, exhaustive = VO.enumerate ~cap vo in
  if exhaustive then (vo, os, true)
  else
    let rng = Random.State.make [| seed; 0x0c31e |] in
    (vo, List.init samples (fun _ -> VO.sample rng vo), false)

let instrs_of_ordering vo o =
  Memmodel.Ordering.apply (VO.threads vo) o

(* AddrCheck and InitCheck: every address the sequential lifeguard flags
   on any ordering must be in the butterfly report's flagged set. *)
let set_zero_false_negatives ~butterfly ~sequential ?model ?cap ?samples ?seed
    p =
  let grid = grid_of_program p in
  let vo, os, exhaustive = orderings_of ?model ?cap ?samples ?seed grid in
  let butterfly_flags = butterfly (Butterfly.Epochs.of_blocks grid) in
  let missed = ref [] in
  List.iteri
    (fun k o ->
      let uncovered =
        IS.diff (sequential (instrs_of_ordering vo o)) butterfly_flags
      in
      if not (IS.is_empty uncovered) then
        missed :=
          Format.asprintf
            "ordering #%d: sequential flags %a, butterfly misses them" k IS.pp
            uncovered
          :: !missed)
    os;
  {
    sound = !missed = [];
    orderings_checked = List.length os;
    exhaustive;
    missed = List.rev !missed;
  }

let addrcheck_zero_false_negatives ?model ?cap ?samples ?seed ?pool p =
  set_zero_false_negatives ?model ?cap ?samples ?seed p
    ~butterfly:(fun e -> Addrcheck.flagged_addresses (Addrcheck.run ?pool e))
    ~sequential:(fun is ->
      Addrcheck_seq.flagged_addresses (Addrcheck_seq.check is))

let initcheck_zero_false_negatives ?model ?cap ?samples ?seed ?pool p =
  set_zero_false_negatives ?model ?cap ?samples ?seed p
    ~butterfly:(fun e -> Initcheck.flagged_addresses (Initcheck.run ?pool e))
    ~sequential:(fun is ->
      Initcheck_seq.flagged_addresses (Initcheck_seq.check is))

(* ------------------------------------------------------------------ *)
(* RaceCheck ground truth.  A pair races {e in one ordering} when no
   happens-before path orders it there and no common lock guards both
   accesses.  The happens-before graph is explicit: event nodes plus
   per-epoch virtual nodes ES(l)/EE(l) encoding the epoch assumption
   (everything of epoch l precedes everything of epoch l+2), fork/join
   edges, program order, and — per ordering — the observed unlock-to-
   next-lock edges of each mutex.  The union of races over enumerated
   (or sampled) valid orderings must be covered by butterfly RaceCheck's
   flagged pairs: Theorem 6.1/6.2 specialized to the race relation.

   The lockset filter matters for soundness of the comparison itself:
   valid orderings do not model mutual exclusion, so without it the
   oracle would demand pairs that butterfly rightly clears as guarded.
   Only [Sequential] is meaningful here — the graph assumes program
   order is respected, which relaxed models deliberately give up. *)

let conflict_addrs i1 i2 =
  let w1 = Tracing.Instr.writes i1 and w2 = Tracing.Instr.writes i2 in
  let r1 = Tracing.Instr.reads i1 and r2 = Tracing.Instr.reads i2 in
  let of_write w other_w other_r =
    match w with
    | Some x when other_w = Some x || List.mem x other_r -> [ x ]
    | _ -> []
  in
  List.sort_uniq compare (of_write w1 w2 r2 @ of_write w2 w1 r1)

let racecheck_zero_false_negatives ?model ?cap ?samples ?seed ?pool p =
  let grid = grid_of_program p in
  let vo, os, exhaustive = orderings_of ?model ?cap ?samples ?seed grid in
  let epochs = Butterfly.Epochs.of_blocks grid in
  let report = Racecheck.run ?pool epochs in
  let flagged = Racecheck.flagged_pairs report in
  let flat = VO.threads vo in
  let n_threads = Array.length flat in
  let num_l = Butterfly.Epochs.num_epochs epochs in
  (* Flat per-thread index -> (epoch, in-block index). *)
  let pos_of =
    Array.init n_threads (fun t ->
        Array.init (Array.length flat.(t)) (fun _ -> (0, 0)))
  in
  Array.iteri
    (fun t blocks ->
      let flat_i = ref 0 in
      List.iteri
        (fun l block ->
          Array.iteri
            (fun i _ ->
              pos_of.(t).(!flat_i) <- (l, i);
              incr flat_i)
            block)
        blocks)
    grid;
  let offsets = Array.make n_threads 0 in
  let n_events = ref 0 in
  Array.iteri
    (fun t es ->
      offsets.(t) <- !n_events;
      n_events := !n_events + Array.length es)
    flat;
  let n_events = !n_events in
  let n_nodes = n_events + (2 * num_l) in
  let es l = n_events + (2 * l) and ee l = n_events + (2 * l) + 1 in
  let base = Array.make n_nodes [] in
  let add adj u v = adj.(u) <- v :: adj.(u) in
  (* Program order and the epoch skeleton. *)
  for t = 0 to n_threads - 1 do
    for i = 0 to Array.length flat.(t) - 1 do
      let e = offsets.(t) + i in
      if i + 1 < Array.length flat.(t) then add base e (e + 1);
      let l, bi = pos_of.(t).(i) in
      if bi = 0 then add base (es l) e;
      let is_last =
        i + 1 >= Array.length flat.(t) || fst pos_of.(t).(i + 1) > l
      in
      if is_last then add base e (ee l)
    done
  done;
  for l = 0 to num_l - 1 do
    if l + 1 < num_l then add base (es l) (es (l + 1));
    if l >= 1 then add base (ee (l - 1)) (ee l);
    if l + 2 < num_l then add base (ee l) (es (l + 2))
  done;
  (* Fork and join edges (epoch-granular, invalid targets inert). *)
  for t = 0 to n_threads - 1 do
    for i = 0 to Array.length flat.(t) - 1 do
      let e = offsets.(t) + i in
      let l, _ = pos_of.(t).(i) in
      match Tracing.Instr.sync_effect flat.(t).(i) with
      | `Fork u when u >= 0 && u < n_threads && u <> t ->
        (* to the first event of [u] in a strictly later epoch *)
        let j = ref 0 in
        while !j < Array.length flat.(u) && fst pos_of.(u).(!j) <= l do
          incr j
        done;
        if !j < Array.length flat.(u) then add base e (offsets.(u) + !j)
      | `Join u when u >= 0 && u < n_threads && u <> t ->
        (* from the last event of [u] in a strictly earlier epoch *)
        let j = ref (Array.length flat.(u) - 1) in
        while !j >= 0 && fst pos_of.(u).(!j) >= l do
          decr j
        done;
        if !j >= 0 then add base (offsets.(u) + !j) e
      | _ -> ()
    done
  done;
  let lockset t i =
    let l, bi = pos_of.(t).(i) in
    Racecheck_seq.locks_before epochs ~tid:t ~epoch:l ~index:bi
  in
  let missed = ref [] in
  List.iteri
    (fun k o ->
      (* Observed critical-section order: unlock -> next lock of m. *)
      let adj = Array.copy base in
      let last_unlock = Hashtbl.create 8 in
      List.iter
        (fun (s : Memmodel.Ordering.step) ->
          let e = offsets.(s.tid) + s.index in
          match Tracing.Instr.sync_effect flat.(s.tid).(s.index) with
          | `Lock m -> (
            match Hashtbl.find_opt last_unlock m with
            | Some u -> add adj u e
            | None -> ())
          | `Unlock m -> Hashtbl.replace last_unlock m e
          | _ -> ())
        o;
      let reach =
        Array.init n_nodes (fun s ->
            let seen = Array.make n_nodes false in
            let rec go v =
              List.iter
                (fun w ->
                  if not seen.(w) then begin
                    seen.(w) <- true;
                    go w
                  end)
                adj.(v)
            in
            go s;
            seen)
      in
      for t1 = 0 to n_threads - 1 do
        for t2 = t1 + 1 to n_threads - 1 do
          for i1 = 0 to Array.length flat.(t1) - 1 do
            for i2 = 0 to Array.length flat.(t2) - 1 do
              let xs = conflict_addrs flat.(t1).(i1) flat.(t2).(i2) in
              if xs <> [] then begin
                let e1 = offsets.(t1) + i1 and e2 = offsets.(t2) + i2 in
                if (not reach.(e1).(e2)) && not reach.(e2).(e1) then
                  if
                    Racecheck.Lockset.is_empty
                      (Racecheck.Lockset.inter (lockset t1 i1) (lockset t2 i2))
                  then begin
                    let l1, b1 = pos_of.(t1).(i1)
                    and l2, b2 = pos_of.(t2).(i2) in
                    let id1 = Racecheck.Id.make ~epoch:l1 ~tid:t1 ~index:b1
                    and id2 = Racecheck.Id.make ~epoch:l2 ~tid:t2 ~index:b2 in
                    let a, b =
                      if Racecheck.Id.compare id1 id2 <= 0 then (id1, id2)
                      else (id2, id1)
                    in
                    List.iter
                      (fun x ->
                        if not (List.mem (a, b, x) flagged) then
                          missed :=
                            Format.asprintf
                              "ordering #%d: %a and %a race on %a, butterfly \
                               does not flag the pair"
                              k Butterfly.Instr_id.pp a Butterfly.Instr_id.pp b
                              Tracing.Addr.pp x
                            :: !missed)
                      xs
                  end
              end
            done
          done
        done
      done)
    os;
  {
    sound = !missed = [];
    orderings_checked = List.length os;
    exhaustive;
    missed = List.rev !missed;
  }

let taintcheck_zero_false_negatives ?model ?cap ?samples ?seed
    ?(sequential = true) ?(two_phase = true) ?pool p =
  let grid = grid_of_program p in
  let vo, os, exhaustive = orderings_of ?model ?cap ?samples ?seed grid in
  let report =
    Taintcheck.run ~sequential ~two_phase ?pool
      (Butterfly.Epochs.of_blocks grid)
  in
  let butterfly_sinks = Taintcheck.flagged_sinks report in
  let missed = ref [] in
  List.iteri
    (fun k o ->
      let seq = Taintcheck_seq.check (instrs_of_ordering vo o) in
      List.iter
        (fun sink ->
          if not (List.mem sink butterfly_sinks) then
            missed :=
              Format.asprintf
                "ordering #%d: sequential taints sink %a, butterfly does not"
                k Tracing.Addr.pp sink
              :: !missed)
        (Taintcheck_seq.flagged_sinks seq))
    os;
  {
    sound = !missed = [];
    orderings_checked = List.length os;
    exhaustive;
    missed = List.rev !missed;
  }
