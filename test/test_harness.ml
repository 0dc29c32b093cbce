(* Tests for the experiment harness: metrics arithmetic, the runner and
   the per-figure derivations on a miniature suite. *)

open Clusteer_uarch
open Clusteer_workloads
module Harness = Clusteer_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let stats_with ?(cycles = 100) ?(committed = 100) ?(copies = 0) ?(stalls = 0) ()
    =
  let s = Stats.create ~clusters:2 in
  s.Stats.cycles <- cycles;
  s.Stats.committed <- committed;
  s.Stats.copies_generated <- copies;
  s.Stats.stall_iq_full <- stalls;
  s

(* ---- Metrics ----------------------------------------------------------- *)

let test_metrics_slowdown () =
  let base = stats_with ~cycles:100 () in
  check_float "25% slower" 25.0
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:125 ()));
  check_float "equal" 0.0
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:100 ()));
  check_float "faster is negative" (-10.0)
    (Harness.Metrics.slowdown_pct ~baseline:base (stats_with ~cycles:90 ()))

let test_metrics_speedup () =
  check_float "vc 25% faster" 25.0
    (Harness.Metrics.speedup_pct
       ~of_:(stats_with ~cycles:100 ())
       ~over:(stats_with ~cycles:125 ()))

let test_metrics_copy_reduction () =
  check_float "halved" 50.0
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:50 ())
       ~over:(stats_with ~copies:100 ()));
  check_float "zero base" 0.0
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:50 ())
       ~over:(stats_with ~copies:0 ()));
  check_float "negative when worse" (-100.0)
    (Harness.Metrics.copy_reduction_pct
       ~of_:(stats_with ~copies:100 ())
       ~over:(stats_with ~copies:50 ()))

let test_metrics_balance_improvement () =
  check_float "fewer stalls" 40.0
    (Harness.Metrics.balance_improvement_pct
       ~of_:(stats_with ~stalls:60 ())
       ~over:(stats_with ~stalls:100 ()))

(* ---- Runner -------------------------------------------------------------- *)

let tiny_profile =
  { (Spec2000.find "gzip-1") with Profile.name = "tiny"; phases = 2 }

let configs2 = Clusteer.Configuration.table3 ~clusters:2

let test_runner_point_shape () =
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c ~configs:configs2
      ~uops:2000 point
  in
  check_int "five configs" 5 (List.length result.Harness.Runner.runs);
  List.iter
    (fun (name, stats) ->
      check_bool "named" true (String.length name > 0);
      check_bool "committed" true
        (stats.Stats.committed >= 2000 && stats.Stats.committed < 2008))
    result.Harness.Runner.runs

let test_runner_same_trace_all_configs () =
  (* Every configuration must replay the identical dynamic stream: the
     committed counts and load/store totals agree. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c ~configs:configs2
      ~uops:2000 point
  in
  (* loads count at dispatch, so the in-flight tail differs slightly
     between configurations, but the replayed stream is the same. *)
  let loads = List.map (fun (_, s) -> s.Stats.loads) result.Harness.Runner.runs in
  let lo = List.fold_left min max_int loads
  and hi = List.fold_left max 0 loads in
  check_bool "loads agree within the in-flight window" true (hi - lo <= 64)

let test_runner_params_reach_policy () =
  (* [Runner.run_workload ~params] must steer exactly like an engine
     built by hand from the compiler pass and the mapping table with
     the same knobs — the reference the bench ablations used to
     hand-roll. *)
  let w = Synth.build (Spec2000.find "galgel") in
  let run_hand ~remap_threshold ~region_uops =
    let annot =
      let p = Clusteer.Configuration.default_params in
      Clusteer_compiler.Vc_partition.compile ~program:w.Synth.program
        ~likely:w.Synth.likely ~virtual_clusters:2 ~region_uops
        ~crit_min_scale:p.crit_min_scale ~max_chain:p.max_chain
    in
    let policy =
      Clusteer_steer.Vc_map.make ~remap_threshold ~annot ~clusters:2 ()
    in
    let prewarm =
      Array.to_list (Array.map Clusteer_trace.Mem_model.extent w.Synth.streams)
    in
    let engine =
      Engine.create ~config:Config.default_2c ~annot ~policy ~prewarm ()
    in
    let trace = Clusteer_trace.Columns.of_generator (Synth.trace w ~seed:1) in
    Engine.run_columns ~warmup:1000 engine ~trace ~uops:2000
  in
  let run_harness ~remap_threshold ~region_uops =
    let params =
      {
        Clusteer.Configuration.default_params with
        Clusteer.Configuration.remap_threshold;
        region_uops;
      }
    in
    Harness.Runner.run_workload ~seed:1 ~warmup:1000 ~params
      ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Vc { virtual_clusters = 2 } ]
      ~uops:2000 w
    |> List.assoc "vc2"
  in
  let results =
    List.concat_map
      (fun remap_threshold ->
        List.map
          (fun region_uops ->
            let hand = run_hand ~remap_threshold ~region_uops in
            check_bool
              (Printf.sprintf "threshold %d, %d-uop regions" remap_threshold
                 region_uops)
              true
              (Stats.equal hand (run_harness ~remap_threshold ~region_uops));
            hand)
          [ 32; 512 ])
      [ 0; 32 ]
  in
  (* Each knob must move the result, or the equalities prove nothing. *)
  match results with
  | [ t0_r32; t0_r512; t32_r32; _ ] ->
      check_bool "threshold matters" false (Stats.equal t0_r32 t32_r32);
      check_bool "region size matters" false (Stats.equal t0_r32 t0_r512)
  | _ -> assert false

(* ---- Column path = record adapter ------------------------------------ *)

module Counters = Clusteer_obs.Counters

let hier2x4 =
  match Clusteer_topo.Topology.of_name "hier2x4" with
  | Ok topo ->
      {
        (Config.default ~clusters:topo.Clusteer_topo.Topology.clusters) with
        Config.topology = topo;
      }
  | Error e -> failwith e

(* The reference for the harness's column path: each configuration on
   a fresh engine, fed one [Dynuop.t] at a time through [Engine.run
   ~source] from a generator of its own, counting into [registry]
   exactly what the harness counts. *)
let adapter_runs ?(params = Clusteer.Configuration.default_params) ~registry
    ~machine ~configs ~warmup ~uops ~seed workload =
  let params =
    {
      params with
      Clusteer.Configuration.topology = Some machine.Config.topology;
    }
  in
  let prewarm =
    Array.to_list
      (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
  in
  let committed = Counters.counter ~registry "harness.uops_committed" in
  List.map
    (fun config ->
      let annot, policy =
        Clusteer.Configuration.prepare config ~program:workload.Synth.program
          ~likely:workload.Synth.likely ~clusters:machine.Config.clusters
          ~params ~registry ()
      in
      let engine =
        Engine.create ~config:machine ~annot ~policy ~prewarm ~registry ()
      in
      let gen = Synth.trace workload ~seed in
      let stats =
        Stats.copy
          (Engine.run ~warmup engine
             ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
             ~uops)
      in
      Counters.add committed stats.Stats.committed;
      (Clusteer.Configuration.name config, stats))
    configs

let same_runs label reference runs =
  Alcotest.(check (list string))
    (label ^ ": configurations")
    (List.map fst reference) (List.map fst runs);
  List.iter2
    (fun (name, a) (_, b) ->
      check_bool (Printf.sprintf "%s, %s: same statistics" label name) true
        (Stats.equal a b))
    reference runs

let registry_json r = Clusteer_obs.Json.to_string (Counters.to_json r)

let test_columns_equal_adapter () =
  (* Every Table 3 configuration, on both fabrics, with and without a
     warmup: the harness's shared column buffer gives the statistics
     and counters of a record-by-record run per configuration. *)
  let workload =
    Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 }
  in
  List.iter
    (fun (fabric, machine) ->
      let configs =
        Clusteer.Configuration.table3 ~clusters:machine.Config.clusters
      in
      List.iter
        (fun warmup ->
          let label = Printf.sprintf "%s, warmup %d" fabric warmup in
          let by_record = Counters.create () and by_column = Counters.create () in
          let reference =
            adapter_runs ~registry:by_record ~machine ~configs ~warmup
              ~uops:1500 ~seed:5 workload
          in
          let runs =
            Harness.Runner.run_workload ~registry:by_column ~seed:5 ~warmup
              ~machine ~configs ~uops:1500 workload
          in
          same_runs label reference runs;
          Alcotest.(check string)
            (label ^ ": same counters")
            (registry_json by_record) (registry_json by_column))
        [ 0; 300 ])
    [ ("p2p", Config.default_2c); ("hier2x4", hier2x4) ]

let test_suite_columns_equal_adapter () =
  (* A worker's buffer serves point after point: each point must
     replay its own stream, at any domain count. *)
  let profiles =
    [
      { (Spec2000.find "gzip-1") with Profile.phases = 2 };
      { (Spec2000.find "mcf") with Profile.phases = 2 };
    ]
  in
  let machine = Config.default_2c and uops = 1000 in
  let reference =
    List.concat_map
      (fun profile ->
        List.map
          (fun point ->
            adapter_runs ~registry:(Counters.create ()) ~machine
              ~configs:configs2
              ~warmup:(Harness.Runner.default_warmup uops)
              ~uops
              ~seed:(Harness.Runner.trace_seed point)
              (Synth.build point.Pinpoints.profile))
          (Pinpoints.points profile))
      profiles
  in
  List.iter
    (fun domains ->
      let results =
        Harness.Runner.run_suite ~domains ~machine ~configs:configs2 ~uops
          profiles
      in
      check_int "every point" (List.length reference) (List.length results);
      List.iter2
        (fun runs r ->
          same_runs
            (Printf.sprintf "%d domain(s), %s phase %d" domains
               r.Harness.Runner.point.Pinpoints.profile.Profile.name
               r.Harness.Runner.point.Pinpoints.index)
            runs r.Harness.Runner.runs)
        reference results)
    [ 1; 3 ]

let test_runner_config_listed_twice () =
  (* Every engine of a point is reset before any runs; a configuration
     listed twice still gets two full runs on the point's stream. *)
  let w = Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 } in
  let vc2 = Clusteer.Configuration.Vc { virtual_clusters = 2 } in
  match
    Harness.Runner.run_workload ~machine:Config.default_2c
      ~configs:[ vc2; Clusteer.Configuration.Op; vc2 ] ~uops:1000 w
  with
  | [ (_, a); _; (_, b) ] ->
      check_bool "same statistics" true (Stats.equal a b);
      check_bool "a full run" true (a.Stats.committed >= 1000)
  | _ -> Alcotest.fail "three runs expected"

(* ---- Reuse contexts ------------------------------------------------- *)

(* The calling domain's reuse context outlives each call: every test
   below runs calls back to back on it and checks each against
   [adapter_runs], which compiles and creates everything afresh. *)

module Configuration = Clusteer.Configuration

let vc2 = Configuration.Vc { virtual_clusters = 2 }

let fresh_runs ?params ~machine ~configs ~uops ~seed workload =
  adapter_runs ?params ~registry:(Counters.create ()) ~machine ~configs
    ~warmup:(Harness.Runner.default_warmup uops) ~uops ~seed workload

let test_context_keys_on_program () =
  (* Two hand-built workloads under one profile record: the second
     must be compiled for its own program, not handed the first's
     annotation (a key on the profile would do that). *)
  let a = Kernels.daxpy () in
  let b = { (Kernels.matmul_inner ()) with Synth.profile = a.Synth.profile } in
  let configs = [ Configuration.Ob; vc2; Configuration.Rhop ] in
  let machine = Config.default_2c and uops = 1500 in
  List.iter
    (fun (label, w) ->
      same_runs label
        (fresh_runs ~machine ~configs ~uops ~seed:3 w)
        (Harness.Runner.run_workload ~seed:3 ~machine ~configs ~uops w))
    [ ("daxpy", a); ("matmul under daxpy's profile", b); ("daxpy again", a) ];
  check_bool "the two programs steer differently" false
    (Stats.equal
       (List.assoc "vc2" (fresh_runs ~machine ~configs ~uops ~seed:3 a))
       (List.assoc "vc2" (fresh_runs ~machine ~configs ~uops ~seed:3 b)))

let test_context_keys_on_compile_knobs () =
  (* Calls that differ only in a compile knob, back to back on one
     context, each equal a fresh compile; so do calls that differ in a
     runtime knob, which reuse the compile. *)
  let point = List.hd (Pinpoints.points (Spec2000.find "gcc-1")) in
  let w = Synth.build point.Pinpoints.profile in
  let d = Configuration.default_params in
  let variants =
    [
      ("defaults", d, Config.default_2c);
      ( "region_uops 8",
        { d with Configuration.region_uops = 8 },
        Config.default_2c );
      ("max_chain 3", { d with Configuration.max_chain = 3 }, Config.default_2c);
      ( "crit_min_scale 1",
        { d with Configuration.crit_min_scale = 1.0 },
        Config.default_2c );
      ("4 clusters", d, Config.default ~clusters:4);
      ( "remap_threshold 0",
        { d with Configuration.remap_threshold = 0 },
        Config.default_2c );
      ("defaults again", d, Config.default_2c);
    ]
  in
  let configs = [ vc2; Configuration.Rhop ] and uops = 1500 in
  let seed = Harness.Runner.trace_seed point in
  let references =
    List.map
      (fun (label, params, machine) ->
        let reference = fresh_runs ~params ~machine ~configs ~uops ~seed w in
        same_runs label reference
          (Harness.Runner.run_point ~params ~machine ~configs ~uops point)
            .Harness.Runner.runs;
        (label, List.assoc "vc2" reference))
      variants
  in
  (* Each variant must move the result, or the equalities prove
     nothing. *)
  let base = List.assoc "defaults" references in
  List.iter
    (fun (label, stats) ->
      if label <> "defaults" && label <> "defaults again" then
        check_bool (label ^ " changes vc2") false (Stats.equal base stats))
    references

let test_context_engines_by_position () =
  (* Engines are kept by position and dropped with the machine: lists
     that reorder, repeat and shrink, on two machines, all equal fresh
     engines. *)
  let w = Synth.build { (Spec2000.find "mcf") with Profile.phases = 1 } in
  let op = Configuration.Op and uops = 1200 in
  List.iter
    (fun (label, machine, configs) ->
      same_runs label
        (fresh_runs ~machine ~configs ~uops ~seed:7 w)
        (Harness.Runner.run_workload ~seed:7 ~machine ~configs ~uops w))
    [
      ("op, vc2", Config.default_2c, [ op; vc2 ]);
      ("vc2, op", Config.default_2c, [ vc2; op ]);
      ("vc2, vc2, ob", Config.default_2c, [ vc2; vc2; Configuration.Ob ]);
      ("hier2x4", hier2x4, [ vc2; op ]);
      ("op alone", Config.default_2c, [ op ]);
      ("vc2, op again", Config.default_2c, [ vc2; op ]);
    ]

let test_context_engine_tally () =
  (* A call on a machine the context does not hold creates its engine;
     the same call again resets it. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let run machine =
    let before = Harness.Runner.engine_tally () in
    ignore
      (Harness.Runner.run_point ~machine ~configs:[ vc2 ] ~uops:500 point);
    let after = Harness.Runner.engine_tally () in
    ( after.Harness.Runner.created - before.Harness.Runner.created,
      after.Harness.Runner.reset - before.Harness.Runner.reset )
  in
  ignore (run Config.default_2c);
  Alcotest.(check (pair int int)) "new machine: created" (1, 0) (run hier2x4);
  Alcotest.(check (pair int int)) "same machine: reset" (0, 1) (run hier2x4)

(* A sink whose [emit] calls [f] on the first event it sees. *)
let sink_calling f =
  let fired = ref false in
  {
    Clusteer_obs.Sink.null with
    Clusteer_obs.Sink.emit =
      (fun _ ->
        if not !fired then begin
          fired := true;
          f ()
        end);
  }

let test_context_reentrant_call () =
  (* A call made from inside another on the same domain (here, from a
     sink callback) runs on a fresh context: both equal fresh runs, so
     neither reused the other's live engine. *)
  let outer = Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 } in
  let inner = Kernels.stencil3 () in
  let machine = Config.default_2c and configs = [ vc2; Configuration.Op ] in
  let uops = 1000 in
  let nested = ref [] in
  let obs name =
    if name = "vc2" then
      Some
        (sink_calling (fun () ->
             nested :=
               Harness.Runner.run_workload ~seed:2 ~machine ~configs ~uops
                 inner))
    else None
  in
  let runs =
    Harness.Runner.run_workload ~seed:4 ~obs ~machine ~configs ~uops outer
  in
  same_runs "outer" (fresh_runs ~machine ~configs ~uops ~seed:4 outer) runs;
  same_runs "inner" (fresh_runs ~machine ~configs ~uops ~seed:2 inner) !nested;
  same_runs "outer again" (fresh_runs ~machine ~configs ~uops ~seed:4 outer)
    (Harness.Runner.run_workload ~seed:4 ~machine ~configs ~uops outer)

let test_context_after_failure () =
  (* A call that raises mid-run leaves its domain's context usable:
     the next call equals a fresh run. *)
  let w = Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 } in
  let machine = Config.default_2c and configs = [ Configuration.Op; vc2 ] in
  let obs name =
    if name = "vc2" then Some (sink_calling (fun () -> failwith "sink boom"))
    else None
  in
  Alcotest.check_raises "the failure reaches the caller" (Failure "sink boom")
    (fun () ->
      ignore
        (Harness.Runner.run_workload ~seed:6 ~obs ~machine ~configs ~uops:800
           w));
  same_runs "after the failure"
    (fresh_runs ~machine ~configs ~uops:800 ~seed:6 w)
    (Harness.Runner.run_workload ~seed:6 ~machine ~configs ~uops:800 w)

let span_count registry =
  Counters.hist_count (Counters.histogram ~registry "profile.engine.commit.ns")

let test_context_rebinds_profiler () =
  (* The engines a domain keeps are rebound to each call's registry
     and profiler: a profiled call after an unprofiled one records its
     engine spans, an unprofiled call after a profiled one records
     none, and a cold call (engine created) and a warm one (engine
     reset) fill their registries identically. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let machine = Config.default ~clusters:3 in
  let call ?profile registry =
    ignore
      (Harness.Runner.run_point ~registry ?profile ~machine
         ~configs:[ vc2; Configuration.Op ] ~uops:600 point)
  in
  let cold = Counters.create () in
  let before = Harness.Runner.engine_tally () in
  call cold;
  check_bool "the first call creates its engines" true
    ((Harness.Runner.engine_tally ()).Harness.Runner.created
    > before.Harness.Runner.created);
  let warm = Counters.create () in
  call warm;
  Alcotest.(check string) "cold = warm registry (json)" (registry_json cold)
    (registry_json warm);
  Alcotest.(check string) "cold = warm registry (exposition)"
    (Clusteer_obs.Expo.render cold) (Clusteer_obs.Expo.render warm);
  let profiled = Counters.create () in
  let profile = Clusteer_obs.Profile.create ~registry:profiled () in
  call ~profile profiled;
  check_int "profiled after unprofiled: one span per engine" 2
    (span_count profiled);
  call (Counters.create ());
  check_int "unprofiled after profiled: no new span" 2 (span_count profiled);
  check_int "the unprofiled registry has no spans" 0 (span_count warm)

let test_runner_default_warmup_clamps () =
  (* Half the measured length within [2k, 10k], but always strictly
     below the budget: the old 2,000-uop floor made tiny runs warm up
     longer than they measured. *)
  check_int "normal range" 3000 (Harness.Runner.default_warmup 6000);
  check_int "capped" 10_000 (Harness.Runner.default_warmup 100_000);
  check_int "floor" 2000 (Harness.Runner.default_warmup 2500);
  check_int "tiny budget" 499 (Harness.Runner.default_warmup 500);
  check_int "single uop" 0 (Harness.Runner.default_warmup 1);
  check_int "degenerate" 0 (Harness.Runner.default_warmup 0);
  for uops = 1 to 50 do
    check_bool "strictly below budget" true
      (Harness.Runner.default_warmup uops < uops)
  done

let test_runner_tiny_run_completes () =
  (* Regression: with the old floor, a 200-uop run spent 2,000 uops
     warming up; now it completes measuring most of its budget. *)
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result =
    Harness.Runner.run_point ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:200 point
  in
  let _, stats = List.hd result.Harness.Runner.runs in
  check_bool "commits its budget" true (stats.Stats.committed >= 200)

let test_runner_measured_and_profiled () =
  (* [measured] wraps a run with wall-clock and GC deltas; a profiled
     run feeds the phase-timing histograms and the committed-uop
     counter the ledger divides by. *)
  let module Obs = Clusteer_obs in
  let registry = Obs.Counters.create () in
  let prof = Obs.Profile.create ~registry () in
  let point = List.hd (Pinpoints.points tiny_profile) in
  let result, wall_s, gc =
    Harness.Runner.measured (fun () ->
        Harness.Runner.run_point ~registry ~profile:prof
          ~machine:Config.default_2c
          ~configs:
            [
              Clusteer.Configuration.Op;
              Clusteer.Configuration.Vc { virtual_clusters = 2 };
            ]
          ~uops:1000 point)
  in
  check_int "both configs ran" 2 (List.length result.Harness.Runner.runs);
  check_bool "wall clock advanced" true (wall_s >= 0.0);
  check_bool "allocation accounted" true (gc.Obs.Ledger.minor_words > 0.0);
  let committed =
    Obs.Counters.value
      (Obs.Counters.counter ~registry "harness.uops_committed")
  in
  let stats_sum =
    List.fold_left
      (fun a (_, s) -> a + s.Stats.committed)
      0 result.Harness.Runner.runs
  in
  check_int "committed counter matches stats" stats_sum committed;
  check_bool "uop attribution sane" true (committed >= 2000);
  (* One flush per engine phase per run: two configs = two samples. *)
  check_int "phase histogram samples" 2
    (Obs.Counters.hist_count
       (Obs.Counters.histogram ~registry "profile.engine.commit.ns"));
  check_bool "words/uop within the hot-path budget era" true
    (Obs.Ledger.minor_words_per_uop gc ~uops:committed >= 0.0)

let test_profiled_minor_words () =
  (* A profiled call counts each point's minor words with the worker
     domain's own [Gc.minor_words]; the figure must be live (not the
     collection-time [quick_stat] one, which reads 0 on a run with no
     minor collection) and within the words the whole call allocated. *)
  let module Obs = Clusteer_obs in
  let counted () =
    Obs.Counters.value (Obs.Counters.counter "harness.gc.minor_words")
  in
  let counted0 = counted () in
  let w0 = Gc.minor_words () in
  ignore
    (Harness.Runner.run_grouped ~domains:1 ~profiled:true
       ~machine:Config.default_2c ~configs:[ Clusteer.Configuration.Op ]
       ~uops:1000 [ tiny_profile ]);
  let w1 = Gc.minor_words () in
  let words = counted () - counted0 in
  check_bool "words counted" true (words > 0);
  if float_of_int words > w1 -. w0 then
    Alcotest.failf "counted %d minor words, the call allocated %.0f" words
      (w1 -. w0)

let test_trace_seed_no_collisions () =
  (* The old affine formula (seed*31 + index + 101) collided across
     nearby benchmarks — e.g. (seed 1, phase 31) and (seed 2, phase 0)
     both mapped to 163. The splitmix-style mix must keep every
     realistic (seed, index) pair distinct. *)
  let base = Spec2000.find "gzip-1" in
  let seen = Hashtbl.create 8192 in
  let collisions = ref 0 in
  for seed = 0 to 499 do
    for index = 0 to 9 do
      let point =
        {
          Pinpoints.benchmark = "x";
          index;
          weight = 1.0;
          profile = { base with Profile.seed };
        }
      in
      let s = Harness.Runner.trace_seed point in
      check_bool "non-negative" true (s >= 0);
      if Hashtbl.mem seen s then incr collisions else Hashtbl.add seen s ()
    done
  done;
  check_int "all 5000 distinct" 0 !collisions

let test_trace_seed_deterministic () =
  let point = List.hd (Pinpoints.points tiny_profile) in
  check_int "stable across calls"
    (Harness.Runner.trace_seed point)
    (Harness.Runner.trace_seed point)

let test_runner_benchmark_covers_phases () =
  let results =
    Harness.Runner.run_suite ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:1000 [ tiny_profile ]
  in
  check_int "one result per phase" tiny_profile.Profile.phases
    (List.length results)

let test_runner_weighted_metric () =
  let results =
    Harness.Runner.run_suite ~machine:Config.default_2c
      ~configs:[ Clusteer.Configuration.Op ] ~uops:1000 [ tiny_profile ]
  in
  let v = Harness.Runner.weighted_metric results ~config:"op" ~f:(fun _ -> 7.0) in
  check_bool "weighted constant" true (abs_float (v -. 7.0) < 1e-9);
  Alcotest.check_raises "missing config"
    (Invalid_argument "Runner: configuration nope missing from results")
    (fun () ->
      ignore
        (Harness.Runner.weighted_metric results ~config:"nope" ~f:(fun _ -> 0.0)))

(* ---- Experiments ------------------------------------------------------------ *)

let mini_suite =
  [
    { (Spec2000.find "gzip-1") with Profile.phases = 1 };
    { (Spec2000.find "galgel") with Profile.phases = 1 };
  ]

let run2 =
  lazy
    (Harness.Experiments.run_2cluster ~uops:3000 ~profiles:mini_suite ())

let test_experiments_figure5_shape () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  check_int "two rows" 2 (List.length fig.Harness.Experiments.rows);
  let row = List.hd fig.Harness.Experiments.rows in
  check_int "four non-baseline configs" 4
    (List.length row.Harness.Experiments.slowdowns);
  check_bool "has one-cluster column" true
    (List.mem_assoc "one-cluster" row.Harness.Experiments.slowdowns);
  check_int "avgs arity" 4 (List.length fig.Harness.Experiments.cpu_avg)

let test_experiments_figure6_shape () =
  let fig = Harness.Experiments.figure6_of (Lazy.force run2) in
  check_int "one point per trace" 2
    (List.length fig.Harness.Experiments.vs_ob);
  check_int "three comparisons" 2 (List.length fig.Harness.Experiments.vs_op)

let test_experiments_figure7_runs () =
  let run =
    Harness.Experiments.run_4cluster ~uops:3000 ~profiles:mini_suite ()
  in
  let fig = Harness.Experiments.figure7_of run in
  let row = List.hd fig.Harness.Experiments.rows in
  check_bool "vc4 present" true
    (List.mem_assoc "vc4" row.Harness.Experiments.slowdowns);
  check_bool "vc2 present" true
    (List.mem_assoc "vc2" row.Harness.Experiments.slowdowns);
  (* §5.4 metric computes without error on the 4-cluster run. *)
  ignore (Harness.Experiments.copy_inflation run)

let test_experiments_section21 () =
  let r = Harness.Experiments.section21_example () in
  (* The sequential implementation places the dependent loads with
     their producer; the parallel one scatters them, costing exactly
     the paper's two extra copies. *)
  check_int "paper's delta" 2
    (r.Harness.Experiments.parallel_copies
   - r.Harness.Experiments.sequential_copies);
  Alcotest.(check (list int)) "sequential placement" [ 1; 1; 1 ]
    r.Harness.Experiments.sequential_placement

let test_experiments_csv_export () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  let path = Filename.temp_file "clusteer_fig5" ".csv" in
  Harness.Experiments.export_slowdowns ~path fig;
  check_bool "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  check_bool "header mentions benchmark" true
    (String.length header >= 9 && String.sub header 0 9 = "benchmark");
  Sys.remove path

let test_report_gnuplot_emission () =
  let fig = Harness.Experiments.figure5_of (Lazy.force run2) in
  let dir = Filename.temp_file "clusteer_report" "" in
  Sys.remove dir;
  let paths = Harness.Report.write_slowdown_figure ~dir ~name:"fig5" fig in
  check_int "two files" 2 (List.length paths);
  List.iter
    (fun p -> check_bool (p ^ " exists") true (Sys.file_exists p))
    paths;
  let gp = List.find (fun p -> Filename.check_suffix p ".gp") paths in
  let ic = open_in gp in
  let first = input_line ic in
  close_in ic;
  check_bool "gnuplot header" true
    (String.length first > 0 && first.[0] = '#');
  let scatter = Harness.Experiments.figure6_of (Lazy.force run2) in
  let spaths = Harness.Report.write_scatter_figure ~dir scatter in
  check_int "four files" 4 (List.length spaths);
  List.iter (fun p -> Sys.remove p) (paths @ spaths);
  Sys.rmdir dir

let () =
  Alcotest.run "clusteer_harness"
    [
      ( "metrics",
        [
          Alcotest.test_case "slowdown" `Quick test_metrics_slowdown;
          Alcotest.test_case "speedup" `Quick test_metrics_speedup;
          Alcotest.test_case "copy reduction" `Quick test_metrics_copy_reduction;
          Alcotest.test_case "balance improvement" `Quick test_metrics_balance_improvement;
        ] );
      ( "runner",
        [
          Alcotest.test_case "point shape" `Slow test_runner_point_shape;
          Alcotest.test_case "same trace everywhere" `Slow test_runner_same_trace_all_configs;
          Alcotest.test_case "covers phases" `Slow test_runner_benchmark_covers_phases;
          Alcotest.test_case "weighted metric" `Slow test_runner_weighted_metric;
          Alcotest.test_case "columns = record adapter" `Slow
            test_columns_equal_adapter;
          Alcotest.test_case "suite columns = record adapter" `Slow
            test_suite_columns_equal_adapter;
          Alcotest.test_case "configuration listed twice" `Quick
            test_runner_config_listed_twice;
          Alcotest.test_case "params reach the policy" `Quick
            test_runner_params_reach_policy;
          Alcotest.test_case "default warmup clamps" `Quick
            test_runner_default_warmup_clamps;
          Alcotest.test_case "tiny run completes" `Quick test_runner_tiny_run_completes;
          Alcotest.test_case "measured and profiled" `Quick
            test_runner_measured_and_profiled;
          Alcotest.test_case "profiled minor words" `Quick
            test_profiled_minor_words;
          Alcotest.test_case "trace seed collision-free" `Quick
            test_trace_seed_no_collisions;
          Alcotest.test_case "trace seed deterministic" `Quick
            test_trace_seed_deterministic;
        ] );
      ( "context",
        [
          Alcotest.test_case "annotations keyed on the program" `Quick
            test_context_keys_on_program;
          Alcotest.test_case "compile knobs in the key" `Slow
            test_context_keys_on_compile_knobs;
          Alcotest.test_case "engines by position" `Quick
            test_context_engines_by_position;
          Alcotest.test_case "engine tally" `Quick test_context_engine_tally;
          Alcotest.test_case "re-entrant call" `Quick
            test_context_reentrant_call;
          Alcotest.test_case "after a failure" `Quick test_context_after_failure;
          Alcotest.test_case "rebinds registry and profiler" `Quick
            test_context_rebinds_profiler;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure5 shape" `Slow test_experiments_figure5_shape;
          Alcotest.test_case "figure6 shape" `Slow test_experiments_figure6_shape;
          Alcotest.test_case "figure7 runs" `Slow test_experiments_figure7_runs;
          Alcotest.test_case "section 2.1" `Quick test_experiments_section21;
          Alcotest.test_case "csv export" `Slow test_experiments_csv_export;
          Alcotest.test_case "gnuplot emission" `Slow test_report_gnuplot_emission;
        ] );
    ]
