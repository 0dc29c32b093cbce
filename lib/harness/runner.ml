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
let trace_seed (point : Pinpoints.point) =
  let open Int64 in
  let z =
    add
      (mul
         (of_int point.Pinpoints.profile.Profile.seed)
         0x9E3779B97F4A7C15L)
      (of_int point.Pinpoints.index)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)

(* Salted variant for replicated measurements (the tuner's AB
   tie-breaks): salt 0 is the identity — exactly [trace_seed] — so
   every existing caller and determinism test is unaffected; a nonzero
   salt derives an independent but equally deterministic stream for
   the same point by running (salt, base seed) through the same
   splitmix64 finalizer. *)
let salted_trace_seed ~salt (point : Pinpoints.point) =
  let base = trace_seed point in
  if salt = 0 then base
  else
    let open Int64 in
    let z = add (mul (of_int salt) 0x9E3779B97F4A7C15L) (of_int base) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    to_int (shift_right_logical z 2)

(* Default warmup: half the measured length, capped — enough to fill
   the L1 and train the predictor at the scaled-down trace sizes — and
   always strictly below the measured budget, so tiny runs (fewer than
   the old 2,000-uop floor) still terminate instead of spending their
   entire budget warming up. *)
let default_warmup uops =
  min (min 10_000 (max 2_000 (uops / 2))) (max 0 (uops - 1))

(* ---- shared trace buffer ----------------------------------------- *)

(* Every configuration of a point replays the identical dynamic stream
   (same seed), so the stream — warmup micro-ops included — only needs
   to be *generated* once per point. The buffer is fed lazily from one
   generator and each configuration reads through its own cursor;
   since {!Clusteer_trace.Dynuop.t} is immutable, sharing the elements
   is safe and the replay is bit-identical to a fresh generator. This
   hoists the warmup's generation cost from once per (point × config)
   to once per point without touching the engines' own warmup phase
   (which must stay per run for results to be independent of sharding). *)
type trace_buffer = {
  tb_gen : Clusteer_trace.Tracegen.t;
  mutable tb_buf : Clusteer_trace.Dynuop.t array;
  mutable tb_len : int;
}

let shared_trace workload ~seed =
  { tb_gen = Synth.trace workload ~seed; tb_buf = [||]; tb_len = 0 }

(* A fresh cursor over the buffer: configuration k replays what the
   generator already produced and extends the buffer past the furthest
   point reached so far. *)
let trace_consumer tb =
  let pos = ref 0 in
  fun () ->
    let i = !pos in
    incr pos;
    while tb.tb_len <= i do
      let d = Clusteer_trace.Tracegen.next tb.tb_gen in
      if tb.tb_len = Array.length tb.tb_buf then begin
        let bigger = Array.make (max 4096 (2 * tb.tb_len)) d in
        Array.blit tb.tb_buf 0 bigger 0 tb.tb_len;
        tb.tb_buf <- bigger
      end;
      tb.tb_buf.(tb.tb_len) <- d;
      tb.tb_len <- tb.tb_len + 1
    done;
    tb.tb_buf.(i)

(* ---- per-domain reuse context ------------------------------------ *)

(* Shared-nothing shard state: everything a domain can profitably keep
   alive across the points it owns. Workloads and compiled annotations
   are deterministic per (profile, configuration), so caching them
   changes nothing; engines are returned to their post-create state
   with {!Engine.reset} instead of being re-allocated. Together these
   remove the bulk of the per-point allocation — and with it the
   stop-the-world minor collections that made the parallel sweep
   anti-scale. *)
type reuse = {
  r_workloads : (Profile.t, Synth.t) Hashtbl.t;
  r_annots : (Profile.t * string, Clusteer_isa.Annot.t) Hashtbl.t;
  r_engines : (string, Engine.t) Hashtbl.t;  (* config name -> engine *)
}

let fresh_reuse () =
  {
    r_workloads = Hashtbl.create 16;
    r_annots = Hashtbl.create 64;
    r_engines = Hashtbl.create 16;
  }

(* Per-shard minor heap: 1M words (8 MB on 64-bit). Minor collections
   are global stop-the-world rendezvous in OCaml 5; giving each shard
   a big nursery makes them rare enough that domains actually run in
   parallel. *)
let shard_minor_heap_words = 1 lsl 20

let run_workload_cached ?warmup ?(seed = 1) ?(obs = fun _ -> None) ?registry
    ?profile ?reuse ?params ~machine ~configs ~uops workload =
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
  let tb = shared_trace workload ~seed in
  List.map
    (fun config ->
      let name = Clusteer.Configuration.name config in
      let cached_annot =
        match reuse with
        | Some r ->
            Hashtbl.find_opt r.r_annots (workload.Synth.profile, name)
        | None -> None
      in
      let annot, policy =
        Clusteer.Configuration.prepare config ~program:workload.Synth.program
          ~likely:workload.Synth.likely ~clusters:machine.Config.clusters
          ~params ?annot:cached_annot ?registry ()
      in
      (match (reuse, cached_annot) with
      | Some r, None ->
          Hashtbl.replace r.r_annots (workload.Synth.profile, name) annot
      | _ -> ());
      let prewarm =
        Array.to_list
          (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
      in
      let engine =
        match reuse with
        | Some r -> (
            match Hashtbl.find_opt r.r_engines name with
            | Some e ->
                Engine.reset ~prewarm ?obs:(obs name) e ~annot ~policy;
                e
            | None ->
                let e =
                  Engine.create ~config:machine ~annot ~policy ~prewarm
                    ?obs:(obs name) ?registry ?profile ()
                in
                Hashtbl.replace r.r_engines name e;
                e)
        | None ->
            Engine.create ~config:machine ~annot ~policy ~prewarm
              ?obs:(obs name) ?registry ?profile ()
      in
      let stats = Engine.run ~warmup engine ~source:(trace_consumer tb) ~uops in
      (* A reused engine resets its stats in place on the next point:
         hand the caller an independent copy. *)
      let stats = if Option.is_some reuse then Stats.copy stats else stats in
      (* The ledger attributes committed work to the run through this
         counter — it rides the registry, so parallel shards merge it
         like any other instrument. *)
      Counters.add committed stats.Stats.committed;
      (name, stats))
    configs

let run_workload ?warmup ?seed ?obs ?registry ?profile ?params ~machine
    ~configs ~uops workload =
  run_workload_cached ?warmup ?seed ?obs ?registry ?profile ?params ~machine
    ~configs ~uops workload

let run_point_cached ?warmup ?obs ?registry ?profile ?reuse ?params
    ?(trace_salt = 0) ~machine ~configs ~uops point =
  let workload =
    match reuse with
    | Some r -> (
        match Hashtbl.find_opt r.r_workloads point.Pinpoints.profile with
        | Some w -> w
        | None ->
            let w = Synth.build point.Pinpoints.profile in
            Hashtbl.replace r.r_workloads point.Pinpoints.profile w;
            w)
    | None -> Synth.build point.Pinpoints.profile
  in
  (* Every configuration replays the identical dynamic stream: the
     generator is reseeded per point with the same seed. *)
  let runs =
    run_workload_cached ?warmup
      ~seed:(salted_trace_seed ~salt:trace_salt point)
      ?obs ?registry ?profile ?reuse ?params ~machine ~configs ~uops workload
  in
  { point; runs }

let run_point ?warmup ?obs ?registry ?profile ?params ?trace_salt ~machine
    ~configs ~uops point =
  run_point_cached ?warmup ?obs ?registry ?profile ?params ?trace_salt
    ~machine ~configs ~uops point

(* Registry-isolated parallel map. Under {!Parallel.Static} (the
   default) the items are pre-partitioned into contiguous per-domain
   shards, each shard runs against one private counter registry, and
   the shard registries are merged into [into] in shard (= input)
   order once every shard completes. Under {!Parallel.Steal} each
   *item* gets a private registry and the per-item registries merge in
   input order — the dynamic schedule balances uneven items at the
   price of cross-domain cursor traffic. {!Counters.merge} is
   commutative and associative over disjoint observation streams, so
   both groupings produce bit-identical merged totals; as long as [f]
   is deterministic per item, both produce results bit-identical to a
   sequential run. The suite sweeps below and the service layer's
   worker pool (lib/serve) both build on this. *)
let map_isolated ?domains ?chunk ?(strategy = Parallel.Static)
    ?(into = Counters.default) f items =
  match strategy with
  | Parallel.Steal ->
      let shard item =
        let registry = Counters.create () in
        let result = f ~registry item in
        (result, registry)
      in
      let sharded =
        Parallel.map ?domains ?chunk ~strategy:Parallel.Steal
          ~minor_heap_words:shard_minor_heap_words shard items
      in
      List.iter (fun (_, registry) -> Counters.merge ~into registry) sharded;
      List.map fst sharded
  | Parallel.Static ->
      let results, registries =
        Parallel.map_sharded ?domains
          ~minor_heap_words:shard_minor_heap_words
          ~init:(fun _ -> Counters.create ())
          ~f:(fun registry item -> f ~registry item)
          items
      in
      List.iter (fun registry -> Counters.merge ~into registry) registries;
      results

(* Parallel core: shard (profile x point) pairs over domains. The
   simulation is deterministic per point (a pure function of the trace
   seed and the machine), so [map_isolated]'s guarantee applies.

   Each domain additionally keeps a {!reuse} context — cached
   workloads, compiled annotations and reset-in-place engines — plus
   one self-profiler when [profiled]; all of it private to the shard,
   merged (registry) or dropped (reuse) at the end. Contiguous
   partitioning keeps a profile's points on one domain, so the caches
   actually hit.

   [profiled] attaches a pipeline self-profiler per shard, over the
   shard's private registry — concurrent engines never share a span,
   and the phase-timing histograms merge back with the rest of the
   shard registry in input order. When profiled, each item also
   records a [harness.point] wall-time span and per-point GC deltas
   ([harness.gc.*] counters). These are wall-clock quantities, hence
   nondeterministic — which is why they are gated behind [profiled]
   and absent from default-mode registries (the determinism contract
   compares those). *)
let run_points ?(progress = fun _ -> ()) ?warmup ?domains ?(profiled = false)
    ?params ?trace_salt ~machine ~configs ~uops profiles =
  let items =
    List.concat_map
      (fun profile ->
        List.map (fun point -> (profile, point)) (Pinpoints.points profile))
      profiles
  in
  let run_item ~registry ~prof ~reuse ((profile : Profile.t), point) =
    if point.Pinpoints.index = 0 then progress profile.Profile.name;
    match prof with
    | None ->
        run_point_cached ?warmup ~registry ~reuse ?params ?trace_salt ~machine
          ~configs ~uops point
    | Some p ->
        let span = Clusteer_obs.Profile.span p "harness.point" in
        let gc0 = Gc.quick_stat () in
        let result =
          Clusteer_obs.Profile.time span (fun () ->
              run_point_cached ?warmup ~registry ~profile:p ~reuse ?params
                ?trace_salt ~machine ~configs ~uops point)
        in
        let gc1 = Gc.quick_stat () in
        let add name v = Counters.add (Counters.counter ~registry name) v in
        add "harness.gc.minor_words"
          (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        add "harness.gc.minor_collections"
          (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
        add "harness.gc.major_collections"
          (gc1.Gc.major_collections - gc0.Gc.major_collections);
        result
  in
  let results, shards =
    Parallel.map_sharded ?domains ~minor_heap_words:shard_minor_heap_words
      ~init:(fun _ ->
        let registry = Counters.create () in
        let prof =
          if profiled then Some (Clusteer_obs.Profile.create ~registry ())
          else None
        in
        (registry, prof, fresh_reuse ()))
      ~f:(fun (registry, prof, reuse) item ->
        run_item ~registry ~prof ~reuse item)
      items
  in
  List.iter
    (fun (registry, _, _) -> Counters.merge ~into:Counters.default registry)
    shards;
  results

let run_suite ?progress ?warmup ?domains ?profiled ?params ?trace_salt ~machine
    ~configs ~uops profiles =
  run_points ?progress ?warmup ?domains ?profiled ?params ?trace_salt ~machine
    ~configs ~uops profiles

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> invalid_arg "Runner.run_grouped: result count mismatch"
    | x :: rest ->
        let taken, remaining = split_at (n - 1) rest in
        (x :: taken, remaining)

let run_grouped ?progress ?warmup ?domains ?profiled ?params ?trace_salt
    ~machine ~configs ~uops profiles =
  let flat =
    run_points ?progress ?warmup ?domains ?profiled ?params ?trace_salt ~machine
      ~configs ~uops profiles
  in
  let groups, rest =
    List.fold_left
      (fun (acc, remaining) profile ->
        let n = List.length (Pinpoints.points profile) in
        let points, remaining = split_at n remaining in
        ((profile, points) :: acc, remaining))
      ([], flat) profiles
  in
  assert (rest = []);
  List.rev groups

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
