(* The two sweep workloads, fig5-sweep and fabric-storm, and the timed
   and traced runs they share. *)

open Clusteer_uarch
module Configuration = Clusteer.Configuration
module Runner = Clusteer_harness.Runner
module Experiments = Clusteer_harness.Experiments
module Counters = Clusteer_obs.Counters
module Topology = Clusteer_topo.Topology
module W = Clusteer_workloads

type sweep = {
  workload : string;
  machine : Config.t;
  configs : Configuration.t list;
  groups : Traced.item list list;
      (** the work units, grouped as the 1-domain pass shares engines *)
  setup : unit -> unit;  (** build every workload and annotation *)
  pass_1d : between:(unit -> unit) -> unit -> Stats.t list * float list * float;
      (** results in unit x configuration order, the round trip in
          seconds of each request the pass makes, and the seconds spent
          in [between], which runs before each request and is excluded
          from its round trip *)
  replay : unit -> Stats.t list;  (** the first request, made again *)
  pass_2d : unit -> Stats.t list;
  stage_pass : unit -> Stats.t list * (string -> float);
      (** the 1-domain pass with the engine self-profiler attached; its
          results, and the summed histograms it recorded *)
  model_err_pp : unit -> float;  (** from the last 1-domain pass *)
}

let flatten runs = List.concat_map (fun r -> List.map snd r) runs
let committed stats = List.fold_left (fun a s -> a + s.Stats.committed) 0 stats
let lookup sums k = Option.value ~default:0.0 (List.assoc_opt k sums)
let params_for machine =
  {
    Configuration.default_params with
    Configuration.topology = Some machine.Config.topology;
  }

(* Build every unit's workload and compile every annotation a run
   uses, as the harness would before simulating. *)
let build_all ~machine ~configs units =
  let registry = Counters.create () in
  let params = params_for machine in
  List.map
    (fun (u : Traced.item) ->
      let w = u.Traced.build () in
      List.iter
        (fun config ->
          ignore
            (Configuration.prepare config ~program:w.W.Synth.program
               ~likely:w.W.Synth.likely ~clusters:machine.Config.clusters
               ~params ~registry ()))
        configs;
      w)
    units

(* ---- fig5-sweep --------------------------------------------------- *)

(* The 10-benchmark subset bench/main.ml sweeps under
   CLUSTEER_BENCH_FAST=1: 27 simulation points. *)
let fig5_benchmarks =
  [
    "gzip-1"; "gcc-1"; "crafty"; "mcf"; "twolf"; "galgel"; "swim"; "equake";
    "art-1"; "sixtrack";
  ]

(* CPU-average slowdowns vs OP that the paper reports (Figure 5). *)
let paper_fig5 =
  [ ("one-cluster", 12.19); ("ob", 6.50); ("rhop", 5.40); ("vc2", 2.62) ]

let fig5 ~uops ~salt =
  let machine = Config.default_2c in
  let configs = Configuration.table3 ~clusters:2 in
  let profiles = List.map W.Spec2000.find fig5_benchmarks in
  let points = List.concat_map W.Pinpoints.points profiles in
  let units =
    List.mapi
      (fun id (p : W.Pinpoints.point) ->
        {
          Traced.id;
          build = (fun () -> W.Synth.build p.W.Pinpoints.profile);
          seed = Runner.salted_trace_seed ~salt p;
          uops;
        })
      points
  in
  let suite ?progress ?profiled ~domains profiles =
    Runner.run_suite ?progress ?profiled ~domains ~trace_salt:salt ~machine
      ~configs ~uops profiles
  in
  let last = ref [] in
  let pass_1d ~between () =
    (* [progress] fires as each benchmark's first point starts, so the
       gaps between calls, less [between], are the per-benchmark round
       trips. *)
    let marks = ref [] and paused = ref 0 in
    let progress _ =
      let t0 = Meter.now_ns () in
      between ();
      let t1 = Meter.now_ns () in
      paused := !paused + (t1 - t0);
      marks := (t0, t1) :: !marks
    in
    let results = suite ~progress ~domains:1 profiles in
    let stop = Meter.now_ns () in
    let rec gaps = function
      | (_, a) :: ((b, _) :: _ as rest) -> (float_of_int (b - a) *. 1e-9) :: gaps rest
      | _ -> []
    in
    last := results;
    ( flatten (List.map (fun r -> r.Runner.runs) results),
      gaps (List.rev ((stop, stop) :: !marks)),
      float_of_int !paused *. 1e-9 )
  in
  let model_err_pp () =
    let rec group profiles results =
      match profiles with
      | [] -> []
      | p :: rest ->
          let n = List.length (W.Pinpoints.points p) in
          let mine = List.filteri (fun i _ -> i < n) results in
          let others = List.filteri (fun i _ -> i >= n) results in
          (p, mine) :: group rest others
    in
    let fig =
      Experiments.figure5_of
        { Experiments.machine; uops; results = group profiles !last }
    in
    Meter.sum
      (List.map
         (fun (c, paper) -> Float.abs (List.assoc c fig.Experiments.cpu_avg -. paper))
         paper_fig5)
    /. float_of_int (List.length paper_fig5)
  in
  {
    workload = "fig5-sweep";
    machine;
    configs;
    groups = [ units ];
    setup = (fun () -> ignore (build_all ~machine ~configs units));
    pass_1d;
    replay =
      (fun () ->
        flatten
          (List.map
             (fun r -> r.Runner.runs)
             (suite ~domains:1 [ List.hd profiles ])));
    pass_2d =
      (fun () ->
        flatten (List.map (fun r -> r.Runner.runs) (suite ~domains:2 profiles)));
    stage_pass =
      (fun () ->
        (* The profiled sweep merges its histograms into the default
           registry: take the difference. *)
        let before = Traced.hist_sums Counters.default in
        let results = suite ~profiled:true ~domains:1 profiles in
        let after = Traced.hist_sums Counters.default in
        ( flatten (List.map (fun r -> r.Runner.runs) results),
          fun k -> lookup after k -. lookup before k ));
    model_err_pp;
  }

(* ---- fabric-storm ------------------------------------------------- *)

let fabric ~uops ~salt =
  let topo =
    match Topology.of_name "hier2x4" with Ok t -> t | Error e -> failwith e
  in
  let machine =
    {
      (Config.default ~clusters:topo.Topology.clusters) with
      Config.topology = topo;
    }
  in
  let configs = [ Configuration.Op; Configuration.Vc { virtual_clusters = 2 } ] in
  let adv_seed = if salt = 0 then 1 else 1 + (salt * 0x9E3779B1 land 0x3FFFFFFF) in
  let adv id shape =
    {
      Traced.id;
      build = (fun () -> W.Adversarial.synth shape);
      seed = adv_seed;
      uops;
    }
  in
  let mcf = List.hd (W.Pinpoints.points (W.Spec2000.find "mcf")) in
  let units =
    [
      adv 0 (W.Adversarial.Fanout { producers = 4; consumers = 24 });
      adv 1 (W.Adversarial.Phase_flip { period = 64 });
      adv 2 (W.Adversarial.Copy_storm { chains = 8; stride = 3 });
      {
        Traced.id = 3;
        build = (fun () -> W.Synth.build mcf.W.Pinpoints.profile);
        seed = Runner.salted_trace_seed ~salt mcf;
        (* mcf runs ~10x fewer micro-ops per host second than the
           adversarial kernels; a smaller budget keeps it from
           dominating the pass. *)
        uops = max 1 (uops / 6);
      };
    ]
  in
  let built = ref [] in
  let setup () = built := build_all ~machine ~configs units in
  let run ?registry ?profile (u : Traced.item) w =
    List.map snd
      (Runner.run_workload ?registry ?profile ~seed:u.Traced.seed ~machine
         ~configs ~uops:u.Traced.uops w)
  in
  let pairs () =
    (match !built with [] -> setup () | _ -> ());
    List.combine units !built
  in
  {
    workload = "fabric-storm";
    machine;
    configs;
    groups = List.map (fun u -> [ u ]) units;
    setup;
    pass_1d =
      (fun ~between () ->
        let paused = ref 0.0 in
        let timed =
          List.map
            (fun (u, w) ->
              paused := !paused +. snd (Meter.timed between);
              Meter.timed (fun () -> run u w))
            (pairs ())
        in
        (List.concat_map fst timed, List.map snd timed, !paused));
    replay = (fun () -> let u, w = List.hd (pairs ()) in run u w);
    pass_2d =
      (fun () ->
        List.concat
          (Runner.map_isolated ~domains:2
             (fun ~registry (u, w) -> run ~registry u w)
             (pairs ())));
    stage_pass =
      (fun () ->
        let registry = Counters.create () in
        let profile = Clusteer_obs.Profile.create ~registry () in
        let stats =
          List.concat_map (fun (u, w) -> run ~registry ~profile u w) (pairs ())
        in
        (stats, lookup (Traced.hist_sums registry)));
    model_err_pp = (fun () -> 0.0);
  }

let make ~workload ~uops ~salt =
  match workload with
  | "fig5-sweep" -> fig5 ~uops ~salt
  | "fabric-storm" -> fabric ~uops ~salt
  | w -> invalid_arg ("Sweeps.make: " ^ w)

(* ---- runs --------------------------------------------------------- *)

let differing a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> acc + List.length rest
    | x :: a', y :: b' -> go (if Stats.equal x y then acc else acc + 1) a' b'
  in
  go 0 a b

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let units s = List.concat s.groups
let requests s = List.length (units s) * List.length s.configs

(* Committed micro-ops of a pass over [s], warmup included. *)
let simulated s stats =
  committed stats
  + List.length s.configs
    * List.fold_left
        (fun a (u : Traced.item) -> a + Runner.default_warmup u.Traced.uops)
        0 (units s)

let ms x = x *. 1000.0

(* A replay is one short request, so take several per pass. *)
let replays_per_pass = 3

(* Timed run with tracing off: set up [setup_reps] times, then run
   (1-domain pass, replay, 2-domain pass) cycles until [seconds] have
   passed and at least [min_passes] are recorded. The first cycle warms
   the heap and caches and is checked but not recorded; the heap peak is
   read after its 1-domain pass. Host-speed samples are taken around the
   set-up, after every pass and, on this process's CPU only, before
   every request of the 1-domain pass (outside its timing). Every host
   time is scaled by the run's index: the 2-domain pass's by the index
   over every CPU, the rest by the index of this process's CPU (see
   Host_speed). Rates are
   medians over the recorded passes; the latency percentiles are taken
   over every request round trip of the recorded passes. *)
let run_timed s ~host ~tally ~expected ~seconds ~setup_reps ~min_passes ~log =
  Host_speed.sample host;
  let setup_s = List.init setup_reps (fun _ -> snd (Meter.timed s.setup)) in
  Host_speed.sample host;
  let n = requests s in
  let rates = ref [] and lats = ref [] and replays = ref [] in
  let peak = ref 0.0 in
  let cycle ~record =
    let w0 = Gc.minor_words () in
    let between () = Host_speed.sample_own host in
    match Tally.guard tally ~ops:n "1-domain pass" (fun () -> Meter.timed (s.pass_1d ~between)) with
    | None -> ()
    | Some ((stats1, lat, paused), dt) -> (
        let dt1 = dt -. paused in
        let words = Gc.minor_words () -. w0 in
        (* The heap peak of set-up plus one 1-domain pass: allocation up
           to here is single-threaded, so the peak repeats run to run;
           after 2-domain passes it would depend on their timing. *)
        if not record then peak := Meter.peak_heap_mb ();
        Host_speed.sample host;
        Tally.add tally ~ops:n ~bad:(Oracle.mismatches expected stats1) "reference digest";
        let c1 = float_of_int (committed stats1) in
        for _ = 1 to replays_per_pass do
          match Tally.guard tally ~ops:1 "replay" (fun () -> Meter.timed s.replay) with
          | None -> ()
          | Some (r, dt) ->
              if record then replays := dt :: !replays;
              Tally.add tally ~ops:1
                ~bad:(if differing r (take (List.length r) stats1) = 0 then 0 else 1)
                "replay identity"
        done;
        match Tally.guard tally ~ops:n "2-domain pass" (fun () -> Meter.timed s.pass_2d) with
        | None -> ()
        | Some (stats2, dt2) ->
            Host_speed.sample host;
            Tally.add tally ~ops:n ~bad:(differing stats1 stats2) "1-domain = 2-domain";
            let r2 = float_of_int (committed stats2) /. dt2 in
            log
              (Printf.sprintf "%s: %.0f uop/s at 1 domain, %.0f at 2 (unscaled)"
                 (if record then "pass" else "warm-up") (c1 /. dt1) r2);
            if record then begin
              lats := lat @ !lats;
              rates := (c1 /. dt1, r2, words /. c1, float_of_int n /. dt1) :: !rates
            end)
  in
  cycle ~record:false;
  let deadline = Meter.now_ns () + int_of_float (seconds *. 1e9) in
  let passes = ref 0 in
  while !passes < min_passes || Meter.now_ns () < deadline do
    incr passes;
    cycle ~record:true
  done;
  if !rates = [] then failwith "no pass completed";
  let k = Host_speed.own host and k2 = Host_speed.all host in
  let med f = Meter.median (List.map f !rates) in
  log
    (Printf.sprintf
       "%s: %d passes of %d requests, %d request round trips, %d replays, %d setups; \
        host index %.3f (own CPU), %.3f (all) over %d samples"
       s.workload !passes n (List.length !lats) (List.length !replays) setup_reps k k2
       (Host_speed.samples host));
  [
    ("uops_per_s", "uop/s", med (fun (a, _, _, _) -> a) *. k);
    ("uops_per_s_2d", "uop/s", med (fun (_, b, _, _) -> b) *. k2);
    ("setup_s", "s", Meter.median setup_s /. k);
    ("minor_words_per_uop", "words/uop", med (fun (_, _, c, _) -> c));
    ("peak_heap_mb", "MB", !peak);
    ("req_per_s", "1/s", med (fun (_, _, _, d) -> d) *. k);
    ("latency_p50_ms", "ms", ms (Meter.quantile !lats 0.5) /. k);
    ("latency_p90_ms", "ms", ms (Meter.quantile !lats 0.9) /. k);
    ("replay_latency_p50_ms", "ms", ms (Meter.median !replays) /. k);
  ]

(* Traced run: one untraced 1-domain pass for reference, then the same
   work through the traced runner, whose statistics must match. *)
let run_traced s ~tally ~expected ~spans_path =
  let n = requests s in
  let gc0 = Gc.quick_stat () in
  let (stats1, _, _), dt1 = Meter.timed (s.pass_1d ~between:ignore) in
  let gc1 = Gc.quick_stat () in
  Tally.add tally ~ops:n ~bad:(Oracle.mismatches expected stats1) "reference digest";
  let t = Traced.create () in
  let traced, dt_tr =
    Meter.timed (fun () ->
        List.concat_map
          (fun g ->
            flatten (Traced.run_group t ~machine:s.machine ~configs:s.configs g))
          s.groups)
  in
  Traced.finish t;
  Tally.add tally ~ops:n ~bad:(differing stats1 traced) "traced = untraced";
  let profiled, stage_ns = s.stage_pass () in
  Tally.add tally ~ops:n ~bad:(differing stats1 profiled) "profiled = untraced";
  Option.iter (Spans.write t.Traced.spans) spans_path;
  Traced.layer_metrics t
  @ Traced.stage_metrics ~ns:stage_ns
      ~uops:(float_of_int (simulated s profiled))
  @ Traced.harness_metrics t ~sweep_s:dt1
      ~minor_gcs:(gc1.Gc.minor_collections - gc0.Gc.minor_collections)
      ~major_gcs:(gc1.Gc.major_collections - gc0.Gc.major_collections)
  @ [
      ("obs.trace_overhead_frac", "frac", (dt_tr /. dt1) -. 1.0);
      ("model.fig5_err_pp", "pp", s.model_err_pp ());
    ]
