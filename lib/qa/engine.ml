type crash = { crash_at : int option; every : int }

type config = {
  iterations : int;
  seed : int;
  shrink : bool;
  shape : Grid_gen.shape;
  diff : Differential.config;
  crash : crash option;
}

let default_config =
  {
    iterations = 100;
    seed = 1;
    shrink = true;
    shape = Grid_gen.default_shape;
    diff = Differential.default_config;
    crash = None;
  }

type counterexample = {
  iteration : int;
  grid : Grid.t;
  mismatches : Differential.mismatch list;
  shrunk : Grid.t option;
  shrink_steps : int;
}

type outcome = {
  lifeguard : Recovery.Snapshot.lifeguard;
  grids : int;
  counterexample : counterexample option;
}

let with_default_pools pools f =
  match pools with
  | Some ps -> f ps
  | None ->
    (* One-worker and two-worker pools: the degenerate serial schedule
       and a genuinely concurrent one, shared across the whole campaign
       (pool creation spawns domains — far too heavy per iteration). *)
    Butterfly.Domain_pool.with_pool ~name:"qa-1" ~domains:1 (fun p1 ->
        Butterfly.Domain_pool.with_pool ~name:"qa-2" ~domains:2 (fun p2 ->
            f [ p1; p2 ]))

let run ?pools ?(config = default_config) lifeguard =
  let labels =
    [ ("lifeguard", Recovery.Snapshot.lifeguard_to_string lifeguard) ]
  in
  let m_grids = Obs.Counter.make ~labels "qa.grids" in
  let m_mismatches = Obs.Counter.make ~labels "qa.mismatches" in
  let sp_check = Obs.Span.make ~labels "qa.check.ns" in
  let sp_shrink = Obs.Span.make ~labels "qa.shrink.ns" in
  Obs.Counter.add m_grids 0;
  Obs.Counter.add m_mismatches 0;
  with_default_pools pools @@ fun pools ->
  let rng = Random.State.make [| config.seed; 0x9a5eed |] in
  let profile = Differential.profile_of lifeguard in
  let check ~crash_seed g =
    let base = Differential.check ~config:config.diff ~pools lifeguard g in
    match config.crash with
    | None -> base
    | Some c ->
      (* The most concurrent pool on offer exercises pooled resume. *)
      let pool =
        match List.rev pools with [] -> None | p :: _ -> Some p
      in
      base
      @ Differential.check_recovery ?pool ~every:c.every
          ?crash_at:c.crash_at ~seed:crash_seed lifeguard g
  in
  let rec loop i =
    if i >= config.iterations then { lifeguard; grids = i; counterexample = None }
    else begin
      let g = Grid_gen.grid ~shape:config.shape profile rng in
      (* Derived, not drawn from [rng]: the grid stream stays identical
         whether or not the crash checks are enabled. *)
      let crash_seed = (config.seed * 1_000_003) + i in
      Obs.Counter.incr m_grids;
      match Obs.Span.time sp_check (fun () -> check ~crash_seed g) with
      | [] -> loop (i + 1)
      | mismatches ->
        Obs.Counter.add m_mismatches (List.length mismatches);
        let shrunk, shrink_steps =
          if not config.shrink then (None, 0)
          else
            (* A candidate that crashes the battery is a different bug:
               treat it as not failing so the minimization stays anchored
               to the mismatch actually found. *)
            let fails g' = match check ~crash_seed g' with [] -> false | _ -> true | exception _ -> false in
            let g', steps =
              Obs.Span.time sp_shrink (fun () -> Shrinker.shrink ~fails g)
            in
            (Some g', steps)
        in
        {
          lifeguard;
          grids = i + 1;
          counterexample =
            Some { iteration = i; grid = g; mismatches; shrunk; shrink_steps };
        }
    end
  in
  loop 0

let check_program ?pools ?(diff = Differential.default_config) lifeguard p =
  with_default_pools pools @@ fun pools ->
  Differential.check ~config:diff ~pools lifeguard (Grid.of_program p)
