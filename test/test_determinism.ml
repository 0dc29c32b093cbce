(* Determinism guarantees of this reproduction:

   1. The domain-parallel harness is bit-identical to a sequential
      run: [run_suite ~domains:1] and [~domains:4] produce equal
      per-point statistics (checked with [Stats.equal] and on the
      serialized JSON).

   2. The zero-allocation steering fast paths decide exactly like
      straightforward list-based implementations of the same policies:
      we record every [Policy.decide] outcome over a full engine run
      and compare the sequences decision by decision. Identical
      decisions imply identical machine evolution, so the first
      divergence (if any) is caught at its earliest point.

   3. The engine allocates nothing per micro-op once its pools are
      warm, under every Table 3 configuration and the dep,
      op-parallel and crit extensions. *)

open Clusteer_isa
open Clusteer_uarch
open Clusteer_workloads
module Harness = Clusteer_harness
module Steer = Clusteer_steer
module Bitset = Clusteer_util.Bitset
module Json = Clusteer_obs.Json

(* The paper's knob values, for the policies built below. *)
let {
  Clusteer.Configuration.stall_threshold;
  imbalance_limit;
  remap_threshold;
  _;
} =
  Clusteer.Configuration.default_params

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- parallel harness vs sequential ------------------------------ *)

let mini_suite =
  [
    { (Spec2000.find "gzip-1") with Profile.phases = 2 };
    { (Spec2000.find "galgel") with Profile.phases = 2 };
  ]

let mini_configs =
  [
    Clusteer.Configuration.Op;
    Clusteer.Configuration.Vc { virtual_clusters = 2 };
  ]

let run_mini ~domains =
  Harness.Runner.run_suite ~domains ~machine:Config.default_2c
    ~configs:mini_configs ~uops:1500 mini_suite

let test_suite_parallel_equals_sequential () =
  let seq = run_mini ~domains:1 in
  let par = run_mini ~domains:4 in
  check_int "same point count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Harness.Runner.point_result) (b : Harness.Runner.point_result) ->
      Alcotest.(check string)
        "same benchmark" a.point.Pinpoints.benchmark b.point.Pinpoints.benchmark;
      check_int "same phase" a.point.Pinpoints.index b.point.Pinpoints.index;
      List.iter2
        (fun (name_a, stats_a) (name_b, stats_b) ->
          Alcotest.(check string) "same config" name_a name_b;
          check_bool (name_a ^ " Stats.equal") true (Stats.equal stats_a stats_b);
          Alcotest.(check string)
            (name_a ^ " identical JSON")
            (Json.to_string (Stats.to_json stats_a))
            (Json.to_string (Stats.to_json stats_b)))
        a.runs b.runs)
    seq par

let test_chunked_sharding_equals_sequential () =
  let seq = run_mini ~domains:1 in
  let par =
    Harness.Runner.run_suite ~domains:3 ~machine:Config.default_2c
      ~configs:mini_configs ~uops:1500 mini_suite
  in
  List.iter2
    (fun (a : Harness.Runner.point_result) (b : Harness.Runner.point_result) ->
      List.iter2
        (fun (_, sa) (_, sb) ->
          check_bool "chunked Stats.equal" true (Stats.equal sa sb))
        a.runs b.runs)
    seq par

(* ---- shard reuse vs fresh points ---------------------------------- *)

(* A sweep shard reuses cached workloads, compiled annotations and
   reset-in-place engines across the points it owns, and merges one
   registry per shard. Running every point from scratch with
   [run_point] (fresh state, straight into the default registry) must
   agree bit for bit: random suites must produce identical per-point
   statistics AND identical merged counter registries, for any domain
   count. *)
let prop_reuse_matches_fresh =
  let open QCheck in
  let profile_gen =
    Gen.map2
      (fun name phases -> { (Spec2000.find name) with Profile.phases })
      (Gen.oneofl [ "gzip-1"; "galgel"; "swim" ])
      (Gen.int_range 1 2)
  in
  let case =
    make
      ~print:(fun (profiles, domains) ->
        Printf.sprintf "domains=%d suite=[%s]" domains
          (String.concat "; "
             (List.map
                (fun (p : Profile.t) ->
                  Printf.sprintf "%s x%d" p.Profile.name p.Profile.phases)
                profiles)))
      (Gen.pair
         (Gen.list_size (Gen.int_range 1 3) profile_gen)
         (Gen.int_range 1 8))
  in
  Test.make ~name:"reuse matches fresh points" ~count:8 case
    (fun (profiles, domains) ->
      let run sweep =
        (* Both forms record into the default registry; start each run
           from the same zeroed state so the registry JSONs are
           directly comparable. *)
        Clusteer_obs.Counters.reset Clusteer_obs.Counters.default;
        let stats_json =
          List.map
            (fun (r : Harness.Runner.point_result) ->
              List.map
                (fun (name, s) -> (name, Json.to_string (Stats.to_json s)))
                r.runs)
            (sweep ())
        in
        let registry_json =
          Json.to_string
            (Clusteer_obs.Counters.to_json Clusteer_obs.Counters.default)
        in
        (stats_json, registry_json)
      in
      let machine = Config.default_2c and configs = mini_configs in
      run (fun () ->
          Harness.Runner.run_suite ~domains ~machine ~configs ~uops:500
            profiles)
      = run (fun () ->
          List.concat_map
            (fun p ->
              List.map
                (Harness.Runner.run_point ~machine ~configs ~uops:500)
                (Pinpoints.points p))
            profiles))

(* ---- shared trace buffer vs fresh generators ----------------------- *)

(* [run_workload] feeds every configuration from one shared,
   lazily-extended trace buffer (the warmup stream is generated once
   per point, not once per configuration). The replay must stay
   bit-identical to the naive form — a fresh generator per
   configuration — and commit exactly the asked-for budget per run. *)
let test_shared_trace_matches_fresh_generators () =
  let profile = { (Spec2000.find "gzip-1") with Profile.phases = 1 } in
  let workload = Synth.build profile in
  let machine = Config.default_2c in
  let uops = 1200 and seed = 42 in
  let registry = Clusteer_obs.Counters.create () in
  let shared =
    Harness.Runner.run_workload ~seed ~registry ~machine ~configs:mini_configs
      ~uops workload
  in
  let manual =
    List.map
      (fun config ->
        let annot, policy =
          Clusteer.Configuration.prepare config
            ~program:workload.Synth.program ~likely:workload.Synth.likely
            ~clusters:machine.Config.clusters ()
        in
        let prewarm =
          Array.to_list
            (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
        in
        let engine =
          Engine.create ~config:machine ~annot ~policy ~prewarm ()
        in
        let gen = Synth.trace workload ~seed in
        let stats =
          Engine.run
            ~warmup:(Harness.Runner.default_warmup uops)
            engine
            ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
            ~uops
        in
        (Clusteer.Configuration.name config, stats))
      mini_configs
  in
  List.iter2
    (fun (name_a, sa) (name_b, sb) ->
      Alcotest.(check string) "same config" name_a name_b;
      check_bool
        (name_a ^ " met the measured budget") true
        (sa.Stats.committed >= uops);
      check_bool (name_a ^ " shared trace bit-identical") true
        (Stats.equal sa sb))
    shared manual;
  (* The warmup hoist must not change what gets attributed to the run:
     the counter is exactly the measured commits, summed per config. *)
  check_int "committed counter sums the per-config commits"
    (List.fold_left (fun acc (_, s) -> acc + s.Stats.committed) 0 shared)
    (Clusteer_obs.Counters.value
       (Clusteer_obs.Counters.counter ~registry "harness.uops_committed"))

(* ---- fast-path policies vs list-based references ------------------- *)

(* Straightforward list-based reimplementations of the steering
   policies, written in the style of the original (pre-fast-path)
   code. [ref_op] includes the rotation tie-break — the one deliberate
   behaviour change of the fast-path rewrite; the others mirror the
   seed implementations exactly. *)

let least_loaded view candidates =
  match candidates with
  | [] -> invalid_arg "reference: no candidates"
  | first :: rest ->
      List.fold_left
        (fun best c ->
          if view.Policy.inflight.(c) < view.Policy.inflight.(best) then c else best)
        first rest

(* Per-source locations in a fresh array, read through the view's
   allocation-free lookup. *)
let src_locations view (u : Uop.t) =
  let locs = Array.make (Array.length u.Uop.srcs) Bitset.empty in
  ignore (view.Policy.src_locations_into u locs);
  locs

let vote_candidates view locations ~order =
  let clusters = view.Policy.clusters in
  let votes = Array.make clusters 0 in
  Array.iter
    (fun loc ->
      for c = 0 to clusters - 1 do
        if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
      done)
    locations;
  let best = Array.fold_left max 0 votes in
  List.filter (fun c -> votes.(c) = best) order

let ref_op ?(stall_threshold = 36) ?(imbalance_limit = 200) () =
  let ndecisions = ref 0 in
  let decide view u =
    let queue = Opcode.queue u.Uop.opcode in
    let clusters = view.Policy.clusters in
    let rot = !ndecisions mod clusters in
    incr ndecisions;
    let order = List.init clusters (fun k -> (rot + k) mod clusters) in
    let candidates =
      vote_candidates view (src_locations view u) ~order
    in
    let preferred = least_loaded view candidates in
    let min_load =
      List.fold_left (fun acc c -> min acc view.Policy.inflight.(c)) max_int
        order
    in
    let preferred =
      if view.Policy.inflight.(preferred) - min_load > imbalance_limit then
        least_loaded view order
      else preferred
    in
    if view.Policy.queue_free preferred queue > 0 then
      Policy.Dispatch_to preferred
    else
      match
        List.filter
          (fun c ->
            c <> preferred && view.Policy.queue_free c queue >= stall_threshold)
          order
      with
      | [] -> Policy.Stall
      | cs -> Policy.Dispatch_to (least_loaded view cs)
  in
  {
    Policy.name = "op-ref";
    decide;
    repeat = None;
    uses_vote_unit = true;
  }

let ref_dep () =
  let decide view u =
    let clusters = view.Policy.clusters in
    let votes = Array.make clusters 0 in
    Array.iter
      (fun loc ->
        for c = 0 to clusters - 1 do
          if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
        done)
      (src_locations view u);
    let best_votes = Array.fold_left max 0 votes in
    let best = ref (-1) in
    for c = clusters - 1 downto 0 do
      if
        votes.(c) = best_votes
        && (!best = -1 || view.Policy.inflight.(c) < view.Policy.inflight.(!best))
      then best := c
    done;
    Policy.Dispatch_to !best
  in
  {
    Policy.name = "dep-ref";
    decide;
    repeat = None;
    uses_vote_unit = true;
  }

let ref_op_parallel ?(stall_threshold = 36) ?(imbalance_limit = 200) () =
  let cycle = ref (-1) in
  let stale : (Reg.t, Bitset.t) Hashtbl.t = Hashtbl.create 16 in
  let decide view u =
    if view.Policy.cycle () <> !cycle then begin
      cycle := view.Policy.cycle ();
      Hashtbl.reset stale
    end;
    let queue = Opcode.queue u.Uop.opcode in
    let clusters = view.Policy.clusters in
    let all = List.init clusters Fun.id in
    let locations =
      Array.mapi
        (fun i loc ->
          match Hashtbl.find_opt stale u.Uop.srcs.(i) with
          | Some old -> old
          | None -> loc)
        (src_locations view u)
    in
    let preferred = least_loaded view (vote_candidates view locations ~order:all) in
    let min_load =
      List.fold_left (fun acc c -> min acc view.Policy.inflight.(c)) max_int all
    in
    let preferred =
      if view.Policy.inflight.(preferred) - min_load > imbalance_limit then
        least_loaded view all
      else preferred
    in
    let decision =
      if view.Policy.queue_free preferred queue > 0 then
        Policy.Dispatch_to preferred
      else
        match
          List.filter
            (fun c ->
              c <> preferred && view.Policy.queue_free c queue >= stall_threshold)
            all
        with
        | [] -> Policy.Stall
        | cs -> Policy.Dispatch_to (least_loaded view cs)
    in
    (match decision with
    | Policy.Dispatch_to _ ->
        Option.iter
          (fun dst ->
            if not (Hashtbl.mem stale dst) then
              Hashtbl.add stale dst (view.Policy.reg_location dst))
          u.Uop.dst
    | Policy.Stall -> ());
    decision
  in
  {
    Policy.name = "op-parallel-ref";
    decide;
    repeat = None;
    uses_vote_unit = true;
  }

(* Critical micro-ops chase their operands (highest vote, then least
   loaded, highest index on equal load, as [ref_dep]); the rest go to
   the least-loaded cluster, lowest index on equal load. *)
let ref_crit ~critical () =
  let decide view (u : Uop.t) =
    let all = List.init view.Policy.clusters Fun.id in
    let id = u.Uop.id in
    if id < Array.length critical && critical.(id) then
      Policy.Dispatch_to
        (least_loaded view
           (vote_candidates view (src_locations view u) ~order:(List.rev all)))
    else Policy.Dispatch_to (least_loaded view all)
  in
  {
    Policy.name = "crit-ref";
    decide;
    repeat = None;
    uses_vote_unit = true;
  }

(* Record the full decision stream of [policy] over an engine run. *)
let record_decisions ~machine ~annot ~policy ~workload ~seed ~uops =
  let log = ref [] in
  let wrapped =
    {
      policy with
      Policy.decide =
        (fun view u ->
          let d = policy.Policy.decide view u in
          log := d :: !log;
          d);
      repeat = None;
    }
  in
  let prewarm =
    Array.to_list
      (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
  in
  let engine =
    Engine.create ~config:machine ~annot ~policy:wrapped ~prewarm ()
  in
  let gen = Synth.trace workload ~seed in
  ignore
    (Engine.run ~warmup:0 engine
       ~source:(fun () -> Clusteer_trace.Tracegen.next gen)
       ~uops);
  List.rev !log

let as_ints =
  List.map (function Policy.Dispatch_to c -> c | Policy.Stall -> -1)

let check_same_decisions name fast reference =
  let profile = { (Spec2000.find "gzip-1") with Profile.phases = 1 } in
  let workload = Synth.build profile in
  let annot =
    Annot.none ~uop_count:workload.Synth.program.Program.uop_count
  in
  let machine = Config.default_2c in
  let run policy =
    record_decisions ~machine ~annot ~policy ~workload ~seed:42 ~uops:2500
  in
  let fast_d = run fast and ref_d = run reference in
  check_bool (name ^ " decided at least once") true (fast_d <> []);
  Alcotest.(check (list int))
    (name ^ " identical decision stream")
    (as_ints ref_d) (as_ints fast_d)

let test_op_fast_path_matches_reference () =
  check_same_decisions "op"
    (Steer.Op.make ~stall_threshold ~imbalance_limit ())
    (ref_op ())

let test_dep_fast_path_matches_reference () =
  check_same_decisions "dep" (Steer.Dep.make ()) (ref_dep ())

let test_op_parallel_fast_path_matches_reference () =
  check_same_decisions "op-parallel"
    (Steer.Op_parallel.make ~stall_threshold ~imbalance_limit)
    (ref_op_parallel ())

let test_crit_fast_path_matches_reference () =
  (* Every third static micro-op critical, so both paths run. *)
  let critical = Array.init 4096 (fun id -> id mod 3 = 0) in
  check_same_decisions "crit"
    (Steer.Crit.make ~critical ())
    (ref_crit ~critical ())

let test_vc_decisions_stable () =
  (* Vc_map only memoizes its [Dispatch_to] values; two independent
     instances replaying the same trace must match decision for
     decision. *)
  let profile = { (Spec2000.find "swim") with Profile.phases = 1 } in
  let workload = Synth.build profile in
  let machine = Config.default_2c in
  let annot, _ =
    Clusteer.Configuration.prepare
      (Clusteer.Configuration.Vc { virtual_clusters = 2 })
      ~program:workload.Synth.program ~likely:workload.Synth.likely ~clusters:2
      ()
  in
  let run () =
    record_decisions ~machine ~annot
      ~policy:(Steer.Vc_map.make ~remap_threshold ~annot ~clusters:2 ())
      ~workload ~seed:7 ~uops:2000
  in
  Alcotest.(check (list int)) "vc replays identically" (as_ints (run ()))
    (as_ints (run ()))

(* ---- engine allocation contract ---------------------------------- *)

(* The trace is generated up front, so the heap deltas count the
   engine and the policy alone. One engine is warmed once, then reset
   onto each configuration: a reset engine reuses every pool, so a
   measured run must not allocate per micro-op. The measured runs are
   twice as long as the warm one, so a structure that grows with the
   run is caught even when it outgrew the warm run's size: arrays over
   256 words go straight to the major heap, which the minor-word count
   never sees, so words allocated there (major less promoted) are
   bounded too. *)
let max_engine_words_per_uop = 0.02
let max_engine_major_words_per_uop = 0.01

let test_engine_allocation_contract () =
  let workload =
    Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 }
  in
  let prewarm =
    Array.to_list
      (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
  in
  let warm_uops = 20_000 and uops = 40_000 in
  (* Committed micro-ops plus what fetch can hold in flight. *)
  let trace =
    let gen = Synth.trace workload ~seed:1 in
    Array.init (uops + 4096) (fun _ -> Clusteer_trace.Tracegen.next gen)
  in
  let prepare config =
    Clusteer.Configuration.prepare config ~program:workload.Synth.program
      ~likely:workload.Synth.likely ~clusters:2 ()
  in
  let run ?(uops = uops) engine =
    let next = ref 0 in
    Engine.run ~warmup:0 engine ~uops ~source:(fun () ->
        let d = trace.(!next) in
        incr next;
        d)
  in
  let configs =
    Clusteer.Configuration.table3 ~clusters:2
    @ Clusteer.Configuration.[ Dep; Op_parallel; Crit ]
  in
  let engine =
    let annot, policy = prepare Clusteer.Configuration.Op in
    let e = Engine.create ~config:Config.default_2c ~annot ~policy ~prewarm () in
    ignore (run ~uops:warm_uops e);
    e
  in
  List.iter
    (fun config ->
      let annot, policy = prepare config in
      Engine.reset ~prewarm engine ~annot ~policy;
      let _, promoted0, major0 = Gc.counters () in
      let before = Gc.minor_words () in
      let stats = run engine in
      let words = Gc.minor_words () -. before in
      let _, promoted1, major1 = Gc.counters () in
      let per_uop w = w /. float_of_int stats.Stats.committed in
      let major = per_uop (major1 -. major0 -. (promoted1 -. promoted0)) in
      let name = Clusteer.Configuration.name config in
      if per_uop words > max_engine_words_per_uop then
        Alcotest.failf "%s: %.4f minor words per committed micro-op > %.2f"
          name (per_uop words) max_engine_words_per_uop;
      if major > max_engine_major_words_per_uop then
        Alcotest.failf "%s: %.4f major words per committed micro-op > %.2f"
          name major max_engine_major_words_per_uop)
    configs

(* The whole per-micro-op path: the generator filling a column buffer
   and the engine fetching from it. The buffer and the engine are
   warmed by a first run, as a sweep worker's are after its first
   point; each measured run starts after the point's rewind, so the
   delta counts only what is paid per micro-op. *)
let max_full_path_words_per_uop = 0.05

let test_full_path_allocation_contract () =
  let workload =
    Synth.build { (Spec2000.find "gzip-1") with Profile.phases = 1 }
  in
  let prewarm =
    Array.to_list
      (Array.map Clusteer_trace.Mem_model.extent workload.Synth.streams)
  in
  let uops = 20_000 in
  let trace = Clusteer_trace.Columns.create () in
  let prepare config =
    Clusteer.Configuration.prepare config ~program:workload.Synth.program
      ~likely:workload.Synth.likely ~clusters:2 ()
  in
  let rewind () =
    Clusteer_trace.Columns.rewind trace (Synth.trace workload ~seed:1)
  in
  let engine =
    let annot, policy = prepare Clusteer.Configuration.Op in
    let e = Engine.create ~config:Config.default_2c ~annot ~policy ~prewarm () in
    rewind ();
    ignore (Engine.run_columns ~warmup:0 e ~trace ~uops);
    e
  in
  List.iter
    (fun config ->
      let annot, policy = prepare config in
      Engine.reset ~prewarm engine ~annot ~policy;
      rewind ();
      let before = Gc.minor_words () in
      let stats = Engine.run_columns ~warmup:0 engine ~trace ~uops in
      let words =
        (Gc.minor_words () -. before) /. float_of_int stats.Stats.committed
      in
      if words > max_full_path_words_per_uop then
        Alcotest.failf "%s: %.4f minor words per committed micro-op > %.2f"
          (Clusteer.Configuration.name config)
          words max_full_path_words_per_uop)
    (Clusteer.Configuration.table3 ~clusters:2
    @ Clusteer.Configuration.[ Dep; Op_parallel; Crit ])

(* ---- compile allocation contract --------------------------------- *)

(* [Configuration.prepare] of the software schemes: minor words per
   static micro-op over three SPEC workloads. The compiler builds its
   graphs into flat arrays and keeps its working tables in per-compile
   scratch, so the figure counts the regions, the annotation and each
   region's graphs, with nothing per edge. The bounds sit a few percent
   above the figures of that design (16.6 / 50.8 / 24.9 / 25.1), so
   one allocation per DDG edge, let alone a boxed adjacency list,
   breaks them. *)
let compile_words_bounds =
  Clusteer.Configuration.
    [
      (Ob, 2, 17.5);
      (Rhop, 2, 52.0);
      (Vc { virtual_clusters = 2 }, 2, 26.0);
      (Vc { virtual_clusters = 4 }, 4, 26.5);
    ]

let compile_words_per_static_uop config ~clusters workloads =
  let words = ref 0.0 and static = ref 0 in
  List.iter
    (fun (w : Synth.t) ->
      let before = Gc.minor_words () in
      ignore
        (Clusteer.Configuration.prepare config ~program:w.Synth.program
           ~likely:w.Synth.likely ~clusters ());
      words := !words +. (Gc.minor_words () -. before);
      static := !static + w.Synth.program.Program.uop_count)
    workloads;
  !words /. float_of_int !static

let test_compile_allocation_contract () =
  let workloads =
    List.map (fun name -> Synth.build (Spec2000.find name)) [ "gzip-1"; "mcf"; "galgel" ]
  in
  List.iter
    (fun (config, clusters, bound) ->
      let words = compile_words_per_static_uop config ~clusters workloads in
      if words > bound then
        Alcotest.failf "%s: %.2f minor words per static micro-op > %.1f"
          (Clusteer.Configuration.name config)
          words bound)
    compile_words_bounds

let () =
  Alcotest.run "clusteer_determinism"
    [
      ( "parallel-harness",
        [
          Alcotest.test_case "domains 1 = domains 4" `Slow
            test_suite_parallel_equals_sequential;
          Alcotest.test_case "chunked sharding" `Slow
            test_chunked_sharding_equals_sequential;
          QCheck_alcotest.to_alcotest prop_reuse_matches_fresh;
          Alcotest.test_case "shared trace = fresh generators" `Slow
            test_shared_trace_matches_fresh_generators;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "op matches reference" `Slow
            test_op_fast_path_matches_reference;
          Alcotest.test_case "dep matches reference" `Slow
            test_dep_fast_path_matches_reference;
          Alcotest.test_case "op-parallel matches reference" `Slow
            test_op_parallel_fast_path_matches_reference;
          Alcotest.test_case "crit matches reference" `Slow
            test_crit_fast_path_matches_reference;
          Alcotest.test_case "vc replays identically" `Slow
            test_vc_decisions_stable;
          Alcotest.test_case "engine allocation contract" `Slow
            test_engine_allocation_contract;
          Alcotest.test_case "full-path allocation contract" `Slow
            test_full_path_allocation_contract;
          Alcotest.test_case "compile allocation contract" `Quick
            test_compile_allocation_contract;
        ] );
    ]
