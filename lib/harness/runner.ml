open Clusteer_uarch
open Clusteer_workloads
module Counters = Clusteer_obs.Counters
module Parallel = Clusteer_util.Parallel

type point_result = {
  point : Pinpoints.point;
  runs : (string * Stats.t) list;
}

(* Per-point trace seed: a splitmix64-style bit mix of (master seed,
   phase index). The previous affine formula [seed*31 + index + 101]
   collided across nearby benchmarks (e.g. seeds 1/phase 31 and
   2/phase 0), silently replaying the same dynamic stream for
   different simulation points. Multiplying by an odd 64-bit constant
   and running the result through a bijective finalizer spreads every
   (seed, index) pair over the full 62-bit output range. *)
let mix_seed ~seed n =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int n) in
  to_int (shift_right_logical (Clusteer_util.Rng.mix z) 2)

let trace_seed (point : Pinpoints.point) =
  mix_seed ~seed:point.Pinpoints.profile.Profile.seed point.Pinpoints.index

(* Salted variant for replicated measurements (the tuner's AB
   tie-breaks): salt 0 is the identity — exactly [trace_seed] — so
   every existing caller and determinism test is unaffected; a nonzero
   salt derives an independent but equally deterministic stream for
   the same point by running (salt, base seed) through the same
   splitmix64 finalizer. *)
let salted_trace_seed ~salt (point : Pinpoints.point) =
  let base = trace_seed point in
  if salt = 0 then base else mix_seed ~seed:salt base

(* Default warmup: half the measured length, capped — enough to fill
   the L1 and train the predictor at the scaled-down trace sizes — and
   always strictly below the measured budget, so tiny runs (fewer than
   the old 2,000-uop floor) still terminate instead of spending their
   entire budget warming up. *)
let default_warmup uops =
  min (min 10_000 (max 2_000 (uops / 2))) (max 0 (uops - 1))

(* ---- per-domain reuse context ------------------------------------ *)

(* Shared-nothing domain state: everything a domain can profitably
   keep alive across the points, and the calls, it runs. Workloads and
   compiled annotations are deterministic in their key, so caching them
   changes nothing; engines are returned to their post-create state
   with {!Engine.reset} instead of being re-allocated. Together these
   remove the bulk of the per-point allocation, and with it the
   stop-the-world minor collections that made the parallel sweep
   anti-scale.

   Each domain owns one context for its whole life, in [Domain.DLS]:
   the calling domain's serves every direct call, and each long-lived
   helper of {!Parallel.map} has its own. [busy] marks a context in use;
   a call that finds its domain's context busy (a call made from inside
   another, e.g. from a sink callback) runs on a fresh one instead.

   - [workloads]: one {!Synth.t} per profile, at most [max_workloads]
     (the table is emptied when a new profile would exceed it).
   - [annots]: per program (physically: the program the annotation
     was compiled from), the annotation of each configuration, all
     under the compile knobs [knobs]; a call with other compile knobs
     empties it first. The table holds its programs weakly, so the
     annotations of a hand-built workload go when the workload does.
     The runtime knobs and the topology do not reach the compile
     ({!Clusteer.Configuration.prepare}) and stay out of the key.
   - [engines]: by position in the call's configuration list, for the
     machine [machine]; a call on another machine drops them.
   - [trace]: the shared trace buffer. Every configuration of a point
     replays the identical dynamic stream (same seed), so the stream,
     warmup micro-ops included, is generated once per point into int
     columns, and each configuration's engine reads it through a
     cursor of its own. The buffer is rewound at each point and keeps
     its columns, so once it holds the longest point it allocates
     nothing; one longer than [max_kept_positions] is dropped after
     its call. *)

type knobs = {
  k_clusters : int;
  k_region_uops : int;
  k_max_chain : int;
  k_crit_min_scale : float;
}

module Annots = Ephemeron.K1.Make (struct
  type t = Clusteer_isa.Program.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type context = {
  workloads : (Profile.t, Synth.t) Hashtbl.t;
  annots :
    (Clusteer.Configuration.t * Clusteer_isa.Annot.t) list Annots.t;
  mutable knobs : knobs option;
  mutable machine : Config.t option;
  mutable engines : Engine.t array;
  mutable trace : Clusteer_trace.Columns.t;
  mutable busy : bool;
}

let max_workloads = 64
let max_kept_positions = 1 lsl 20

let fresh_context () =
  {
    workloads = Hashtbl.create 16;
    annots = Annots.create 16;
    knobs = None;
    machine = None;
    engines = [||];
    trace = Clusteer_trace.Columns.create ();
    busy = false;
  }

let context_key = Domain.DLS.new_key fresh_context

type engine_tally = { created : int; reset : int }

let tally_key = Domain.DLS.new_key (fun () -> ref { created = 0; reset = 0 })
let engine_tally () = !(Domain.DLS.get tally_key)

(* Run [f] on the calling domain's context, or on a fresh one if that
   is in use. A call that raises drops the engines it may have left
   mid-run. *)
let with_context f =
  let own = Domain.DLS.get context_key in
  let ctx = if own.busy then fresh_context () else own in
  ctx.busy <- true;
  match f ctx with
  | result ->
      ctx.busy <- false;
      if Array.length ctx.trace.Clusteer_trace.Columns.sid > max_kept_positions
      then ctx.trace <- Clusteer_trace.Columns.create ();
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ctx.busy <- false;
      ctx.engines <- [||];
      Printexc.raise_with_backtrace e bt

let workload_of ctx profile =
  match Hashtbl.find_opt ctx.workloads profile with
  | Some w -> w
  | None ->
      if Hashtbl.length ctx.workloads >= max_workloads then
        Hashtbl.reset ctx.workloads;
      let w = Synth.build profile in
      Hashtbl.replace ctx.workloads profile w;
      w

(* The cached annotation of [config] on [program], after emptying the
   table if the compile knobs changed. *)
let cached_annot ctx ~knobs ~program config =
  if ctx.knobs <> Some knobs then begin
    Annots.reset ctx.annots;
    ctx.knobs <- Some knobs
  end;
  Option.bind (Annots.find_opt ctx.annots program) (List.assoc_opt config)

let remember_annot ctx ~program config annot =
  let known = Option.value ~default:[] (Annots.find_opt ctx.annots program) in
  Annots.replace ctx.annots program ((config, annot) :: known)

(* The engine at [position] for [machine], reset onto [annot]/[policy],
   or a new one. *)
let engine_at ctx ~position ~machine ~prewarm ~warm_from ?obs ?registry
    ?profile ~annot ~policy () =
  if ctx.machine <> Some machine then begin
    ctx.engines <- [||];
    ctx.machine <- Some machine
  end;
  let tally = Domain.DLS.get tally_key in
  if position < Array.length ctx.engines then begin
    let e = ctx.engines.(position) in
    (match warm_from with
    | None -> Engine.reset ~prewarm ?obs ?registry ?profile e ~annot ~policy
    | Some src ->
        Engine.reset ~warm_from:src ?obs ?registry ?profile e ~annot ~policy);
    tally := { !tally with reset = !tally.reset + 1 };
    e
  end
  else begin
    let e =
      Engine.create ~config:machine ~annot ~policy ~prewarm ?obs ?registry
        ?profile ()
    in
    ctx.engines <- Array.append ctx.engines [| e |];
    tally := { !tally with created = !tally.created + 1 };
    e
  end

(* Per-worker minor heap: 1M words (8 MB on 64-bit). Minor collections
   are global stop-the-world rendezvous in OCaml 5; giving each worker
   a big nursery makes them rare enough that domains actually run in
   parallel. *)
let worker_minor_heap_words = 1 lsl 20

(* The one run path. Simulate [configs] on [workload] against [ctx]: a
   cached annotation is handed back to [prepare], and the engine at a
   configuration's position is reset in place rather than re-created.
   Every engine is reset before any runs, so the cache prewarm is
   computed once, by the first engine, and copied into the others. *)
let run_with ctx ?warmup ?(seed = 1) ?(obs = fun _ -> None) ?registry
    ?profile ?params ~machine ~configs ~uops workload =
  let warmup = Option.value ~default:(default_warmup uops) warmup in
  let committed = Counters.counter ?registry "harness.uops_committed" in
  (* The machine's fabric is the single source of truth for topology:
     whatever interconnect the engine simulates is also what the
     steering layer reasons about, so [params.topology] is always
     overwritten from the machine configuration here. On the default
     point-to-point fabric the policies' uniform path keeps behavior
     and counters bit-identical to a run without the injection. *)
  let params =
    let p =
      Option.value params ~default:Clusteer.Configuration.default_params
    in
    { p with Clusteer.Configuration.topology = Some machine.Config.topology }
  in
  let knobs =
    {
      k_clusters = machine.Config.clusters;
      k_region_uops = params.Clusteer.Configuration.region_uops;
      k_max_chain = params.Clusteer.Configuration.max_chain;
      k_crit_min_scale = params.Clusteer.Configuration.crit_min_scale;
    }
  in
  let program = workload.Synth.program in
  let prewarm =
    Array.to_list
      (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
  in
  let warm = ref None in
  let engines =
    List.mapi
      (fun position config ->
        let name = Clusteer.Configuration.name config in
        let cached = cached_annot ctx ~knobs ~program config in
        let annot, policy =
          Clusteer.Configuration.prepare config ~program
            ~likely:workload.Synth.likely ~clusters:machine.Config.clusters
            ~params ?annot:cached ?registry ()
        in
        if Option.is_none cached then remember_annot ctx ~program config annot;
        let engine =
          engine_at ctx ~position ~machine ~prewarm ~warm_from:!warm
            ?obs:(obs name) ?registry ?profile ~annot ~policy ()
        in
        if Option.is_none !warm then warm := Some engine;
        (name, engine))
      configs
  in
  Clusteer_trace.Columns.rewind ctx.trace (Synth.trace workload ~seed);
  List.map
    (fun (name, engine) ->
      let stats = Engine.run_columns ~warmup engine ~trace:ctx.trace ~uops in
      (* The engine resets its stats in place on its next point: hand
         the caller an independent copy. *)
      let stats = Stats.copy stats in
      (* The ledger attributes committed work to the run through this
         counter — it rides the registry, so parallel workers merge it
         like any other instrument. *)
      Counters.add committed stats.Stats.committed;
      (name, stats))
    engines

let run_workload ?warmup ?seed ?obs ?registry ?profile ?params ~machine
    ~configs ~uops workload =
  with_context (fun ctx ->
      run_with ctx ?warmup ?seed ?obs ?registry ?profile ?params ~machine
        ~configs ~uops workload)

let run_point ?warmup ?seed ?obs ?registry ?profile ?params ?(trace_salt = 0)
    ~machine ~configs ~uops point =
  with_context (fun ctx ->
      let workload = workload_of ctx point.Pinpoints.profile in
      (* Every configuration replays the identical dynamic stream: the
         generator is reseeded per point with the same seed. *)
      let seed =
        match seed with
        | Some s -> s
        | None -> salted_trace_seed ~salt:trace_salt point
      in
      let runs =
        run_with ctx ?warmup ~seed ?obs ?registry ?profile ?params ~machine
          ~configs ~uops workload
      in
      { point; runs })

(* Registry-isolated parallel map: every item is its own group, so
   workers claim items one at a time off the shared cursor, and each
   worker runs its items against one private counter registry. The
   worker registries merge into [into] once every worker is done.
   Which worker ran which item depends on timing, but the merged
   totals do not: registries hold only ints, {!Counters.merge} adds
   (or maxes) them, and every rendering sorts by name. As long as [f]
   is deterministic per item, a parallel run is bit-identical to a
   sequential one. The service layer's dispatch (lib/serve) builds on
   this; the suite sweeps below use the same schedule with a richer
   worker state. *)
let map_isolated ?domains ?(into = Counters.default) f items =
  let results, registries =
    Parallel.map ?domains ~minor_heap_words:worker_minor_heap_words
      ~init:(fun _ -> Counters.create ())
      ~f:(fun registry item -> f ~registry item)
      (List.map (fun item -> [ item ]) items)
  in
  List.iter (fun registry -> Counters.merge ~into registry) registries;
  List.concat results

(* Parallel core: one group per benchmark, claimed whole by whichever
   worker is free. The simulation is deterministic per point (a pure
   function of the trace seed and the machine), so [map_isolated]'s
   guarantee applies.

   Each point runs on its worker domain's {!context} (cached workloads,
   compiled annotations and reset-in-place engines, kept across calls);
   each worker also has a private registry, merged at the end, and one
   self-profiler when [profiled]. A benchmark's points all run on the
   worker that claimed it, so the caches hit.

   [profiled] attaches a pipeline self-profiler per worker, over the
   worker's private registry — concurrent engines never share a span,
   and the phase-timing histograms merge back with the rest of the
   worker registry. When profiled, each point also records a
   [harness.point] wall-time span and per-point GC deltas
   ([harness.gc.*] counters). These are wall-clock quantities, hence
   nondeterministic — which is why they are gated behind [profiled]
   and absent from default-mode registries (the determinism contract
   compares those). *)
let run_grouped ?(progress = fun _ -> ()) ?warmup ?domains ?(profiled = false)
    ?params ?trace_salt ~machine ~configs ~uops profiles =
  let run_one (registry, prof) point =
    if point.Pinpoints.index = 0 then
      progress point.Pinpoints.profile.Profile.name;
    match prof with
    | None ->
        run_point ?warmup ~registry ?params ?trace_salt ~machine ~configs
          ~uops point
    | Some p ->
        let span = Clusteer_obs.Profile.span p "harness.point" in
        (* [Gc.minor_words ()] is this domain's own count, exact at
           any moment; [quick_stat]'s advances only at a collection. *)
        let gc0 = Gc.quick_stat () in
        let words0 = Gc.minor_words () in
        let result =
          Clusteer_obs.Profile.time span (fun () ->
              run_point ?warmup ~registry ~profile:p ?params ?trace_salt
                ~machine ~configs ~uops point)
        in
        let words1 = Gc.minor_words () in
        let gc1 = Gc.quick_stat () in
        let add name v = Counters.add (Counters.counter ~registry name) v in
        add "harness.gc.minor_words" (int_of_float (words1 -. words0));
        add "harness.gc.minor_collections"
          (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
        add "harness.gc.major_collections"
          (gc1.Gc.major_collections - gc0.Gc.major_collections);
        result
  in
  let results, workers =
    Parallel.map ?domains ~minor_heap_words:worker_minor_heap_words
      ~init:(fun _ ->
        let registry = Counters.create () in
        let prof =
          if profiled then Some (Clusteer_obs.Profile.create ~registry ())
          else None
        in
        (registry, prof))
      ~f:run_one
      (List.map Pinpoints.points profiles)
  in
  List.iter
    (fun (registry, _) -> Counters.merge ~into:Counters.default registry)
    workers;
  List.combine profiles results

let run_suite ?progress ?warmup ?domains ?profiled ?params ?trace_salt ~machine
    ~configs ~uops profiles =
  List.concat_map snd
    (run_grouped ?progress ?warmup ?domains ?profiled ?params ?trace_salt
       ~machine ~configs ~uops profiles)

let stats_of result config =
  match List.assoc_opt config result.runs with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Runner: configuration %s missing from results" config)

let weighted_metric results ~config ~f =
  let pairs =
    List.map
      (fun r -> (f (stats_of r config), r.point.Pinpoints.weight))
      results
  in
  Clusteer_util.Stats.weighted_mean (Array.of_list pairs)

(* Wall-clock and GC accounting around one run, in the shape the run
   ledger records. *)
let measured f =
  let gc0 = Clusteer_obs.Ledger.gc_now () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let gc = Clusteer_obs.Ledger.gc_sub (Clusteer_obs.Ledger.gc_now ()) gc0 in
  (result, wall_s, gc)

let weighted_pair_metric results ~config_a ~config_b ~f =
  let pairs =
    List.map
      (fun r ->
        (f (stats_of r config_a) (stats_of r config_b), r.point.Pinpoints.weight))
      results
  in
  Clusteer_util.Stats.weighted_mean (Array.of_list pairs)
