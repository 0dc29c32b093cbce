(* The traced runner: simulates work items through the same public calls
   [Runner.run_workload] makes (Synth -> Configuration.prepare ->
   Engine.create/reset -> Engine.run over one shared trace per item ->
   Stats.copy), recording a span around each call and wrapping the
   [source] closure and the policy's [decide] to count the per-micro-op
   trace and steering calls and the minor words each allocates. A clock
   read costs a few hundred nanoseconds on some hosts, more than a
   steering decision, so only a pseudo-random 1 in [sample_every] of
   these calls is timed and the summed time is scaled by calls /
   sampled calls. The statistics it returns must equal the
   untraced run's; the slowdown it adds is [obs.trace_overhead_frac]. *)

open Clusteer_uarch
module Configuration = Clusteer.Configuration
module Runner = Clusteer_harness.Runner
module Synth = Clusteer_workloads.Synth
module Counters = Clusteer_obs.Counters
module Tracegen = Clusteer_trace.Tracegen

(* One unit of work: a workload, its trace seed and its measured
   micro-op budget per configuration. *)
type item = { id : int; build : unit -> Synth.t; seed : int; uops : int }

(* Per-micro-op accumulators. Floats live in a float array so that
   updating them on the hot path allocates nothing. *)
type acc = {
  mutable trace_ns : int;  (** over sampled calls only *)
  mutable trace_calls : int;
  mutable trace_sampled : int;
  mutable steer_ns : int;  (** over sampled calls only *)
  mutable decides : int;
  mutable steer_sampled : int;
  mutable stalls : int;
  mutable rng : int;
  words : float array;  (** 0: trace words, 1: steer words; every call *)
}

let sample_every = 16

(* 48-bit LCG: decides which calls are timed without aliasing with the
   loop structure of the simulated program. *)
let sampled acc =
  acc.rng <- ((acc.rng * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
  (acc.rng lsr 24) land (sample_every - 1) = 0

(* Summed time of [calls] calls, [sampled] of them timed for [ns]. *)
let estimate ~ns ~calls ~sampled =
  if sampled = 0 then 0 else ns * calls / sampled

type t = {
  spans : Spans.t;
  registry : Counters.registry;
  acc : acc;
  root : int;
  mutable sim_uops : int;  (** committed micro-ops, warmup included *)
  mutable stats : Stats.t list;  (** every measured result, newest first *)
}

let create () =
  let spans = Spans.create () in
  let registry = Counters.create () in
  {
    spans;
    registry;
    acc =
      {
        trace_ns = 0;
        trace_calls = 0;
        trace_sampled = 0;
        steer_ns = 0;
        decides = 0;
        steer_sampled = 0;
        stalls = 0;
        rng = 1;
        words = [| 0.0; 0.0 |];
      };
    root = Spans.enter spans ~id:(-1) ~name:"bench.run" ~parent:(-1);
    sim_uops = 0;
    stats = [];
  }

let finish t = Spans.leave t.spans t.root

let wrap_policy acc (p : Policy.t) =
  let decide view uop =
    let w0 = Gc.minor_words () in
    let d =
      if sampled acc then begin
        let t0 = Meter.now_ns () in
        let d = p.Policy.decide view uop in
        acc.steer_ns <- acc.steer_ns + (Meter.now_ns () - t0);
        acc.steer_sampled <- acc.steer_sampled + 1;
        d
      end
      else p.Policy.decide view uop
    in
    acc.words.(1) <- acc.words.(1) +. (Gc.minor_words () -. w0);
    acc.decides <- acc.decides + 1;
    (match d with Policy.Stall -> acc.stalls <- acc.stalls + 1 | _ -> ());
    d
  in
  { p with Policy.decide }

(* One generator per item, shared by every configuration through a
   growing buffer, as the harness does; only generator calls are
   timed as the trace layer. *)
let shared_source acc gen =
  let buf = ref [||] and len = ref 0 in
  fun () ->
    let pos = ref 0 in
    fun () ->
      let i = !pos in
      incr pos;
      while !len <= i do
        let w0 = Gc.minor_words () in
        let d =
          if sampled acc then begin
            let t0 = Meter.now_ns () in
            let d = Tracegen.next gen in
            acc.trace_ns <- acc.trace_ns + (Meter.now_ns () - t0);
            acc.trace_sampled <- acc.trace_sampled + 1;
            d
          end
          else Tracegen.next gen
        in
        acc.words.(0) <- acc.words.(0) +. (Gc.minor_words () -. w0);
        acc.trace_calls <- acc.trace_calls + 1;
        if !len = Array.length !buf then begin
          let bigger = Array.make (max 4096 (2 * !len)) d in
          Array.blit !buf 0 bigger 0 !len;
          buf := bigger
        end;
        !buf.(!len) <- d;
        incr len
      done;
      !buf.(i)

(* Run [items] under [configs]; engines are kept per configuration
   across the items of one call and reset in place, as the harness
   does within a shard. Returns each item's (config, stats) list. *)
let run_group t ~machine ~configs items =
  let params =
    {
      Configuration.default_params with
      Configuration.topology = Some machine.Config.topology;
    }
  in
  let engines = Hashtbl.create 8 in
  let span ~id ~parent name f =
    Spans.with_span t.spans ~id ~name ~parent f
  in
  List.map
    (fun item ->
      let uops = item.uops and warmup = Runner.default_warmup item.uops in
      span ~id:item.id ~parent:t.root "harness.point" (fun point ->
          let workload =
            span ~id:item.id ~parent:point "workloads.build" (fun _ ->
                item.build ())
          in
          let source =
            shared_source t.acc (Synth.trace workload ~seed:item.seed)
          in
          let prewarm =
            Array.to_list
              (Array.map Clusteer_trace.Mem_model.extent
                 workload.Synth.streams)
          in
          List.map
            (fun config ->
              let name = Configuration.name config in
              let annot, policy =
                span ~id:item.id ~parent:point ("compiler.prepare." ^ name)
                  (fun _ ->
                    Configuration.prepare config
                      ~program:workload.Synth.program
                      ~likely:workload.Synth.likely
                      ~clusters:machine.Config.clusters ~params
                      ~registry:t.registry ())
              in
              let policy = wrap_policy t.acc policy in
              let engine =
                span ~id:item.id ~parent:point "uarch.create_reset" (fun _ ->
                    match Hashtbl.find_opt engines name with
                    | Some e ->
                        Engine.reset ~prewarm e ~annot ~policy;
                        e
                    | None ->
                        let e =
                          Engine.create ~config:machine ~annot ~policy ~prewarm
                            ~registry:t.registry ()
                        in
                        Hashtbl.replace engines name e;
                        e)
              in
              let stats =
                span ~id:item.id ~parent:point "uarch.run" (fun run ->
                    let a = t.acc in
                    let tn = a.trace_ns and tc = a.trace_calls in
                    let ts = a.trace_sampled and tw = a.words.(0) in
                    let sn = a.steer_ns and sc = a.decides in
                    let ss = a.steer_sampled and sw = a.words.(1) in
                    let s = Engine.run ~warmup engine ~source:(source ()) ~uops in
                    Spans.aggregate t.spans ~id:item.id ~parent:run
                      ~name:"trace.next"
                      ~ns:
                        (estimate ~ns:(a.trace_ns - tn)
                           ~calls:(a.trace_calls - tc)
                           ~sampled:(a.trace_sampled - ts))
                      ~words:(a.words.(0) -. tw) ~calls:(a.trace_calls - tc);
                    Spans.aggregate t.spans ~id:item.id ~parent:run
                      ~name:"steer.decide"
                      ~ns:
                        (estimate ~ns:(a.steer_ns - sn) ~calls:(a.decides - sc)
                           ~sampled:(a.steer_sampled - ss))
                      ~words:(a.words.(1) -. sw) ~calls:(a.decides - sc);
                    s)
              in
              let stats = Stats.copy stats in
              t.sim_uops <- t.sim_uops + warmup + stats.Stats.committed;
              t.stats <- stats :: t.stats;
              (name, stats))
            configs))
    items

(* ---- per-layer metrics ------------------------------------------- *)

let counter t name =
  match List.assoc_opt name (Counters.counters t.registry) with
  | Some v -> float_of_int v
  | None -> 0.0

(* Histogram sums of a registry, e.g. the engine self-profiler's
   [profile.engine.<stage>.ns]. *)
let hist_sums registry =
  List.map
    (fun (n, h) -> (n, float_of_int (Counters.hist_sum h)))
    (Counters.histograms registry)

let stages = [ "fetch"; "dispatch"; "issue"; "writeback"; "commit" ]

(* Per-stage engine time from the self-profiler's spans: [ns stage] is
   the summed nanoseconds of [profile.engine.<stage>.ns] over runs that
   simulated [uops] micro-ops, warmup included. *)
let stage_metrics ~ns ~uops =
  List.map
    (fun st ->
      ( "uarch.stage_ns_per_uop." ^ st,
        "ns/uop",
        Meter.ratio (ns ("profile.engine." ^ st ^ ".ns")) uops ))
    stages

(* Every per-layer metric the traced runner can see, as
   (name, unit, value). Per-micro-op figures divide by committed
   micro-ops including warmup, since every timed call covers warmup
   too. *)
let layer_metrics t =
  let sp = t.spans in
  let self_ns = Array.map float_of_int (Spans.self_ns sp) in
  let self_words = Spans.self_words sp in
  let named n = Spans.sum_by sp self_ns (String.equal n) in
  let named_words n = Spans.sum_by sp self_words (String.equal n) in
  let prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let uops = float_of_int (max 1 t.sim_uops) in
  let stats = t.stats in
  let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let cycles = total (fun s -> s.Stats.cycles) in
  let committed = total (fun s -> s.Stats.committed) in
  (* Engine.run covers the warmup cycles too; they are not reported, so
     scale the measured cycles by the committed share, assuming warmup
     runs at the measured IPC. *)
  let run_cycles = Meter.ratio (cycles *. uops) committed in
  let engine_ns = named "uarch.run" in
  let a = t.acc in
  let decides = float_of_int a.decides in
  let prepare n = named ("compiler.prepare." ^ n) *. 1e-6 in
  let hops =
    match List.assoc_opt "steer.remap.hops" (Counters.histograms t.registry) with
    | Some h when Counters.hist_count h > 0 -> Counters.hist_mean h
    | _ -> 0.0
  in
  [
    ("workloads.build_ms", "ms", named "workloads.build" *. 1e-6);
    ( "compiler.prepare_ms",
      "ms",
      Spans.sum_by sp self_ns (prefix "compiler.prepare.") *. 1e-6 );
    ("compiler.prepare_ms.ob", "ms", prepare "ob");
    ("compiler.prepare_ms.rhop", "ms", prepare "rhop");
    ("compiler.prepare_ms.vc2", "ms", prepare "vc2");
    ( "compiler.prepare_words",
      "words",
      Spans.sum_by sp self_words (prefix "compiler.prepare.") );
    ("trace.uops", "count", float_of_int a.trace_calls);
    ( "trace.ns_per_uop",
      "ns/uop",
      Meter.ratio (float_of_int a.trace_ns) (float_of_int a.trace_sampled) );
    ( "trace.words_per_uop",
      "words/uop",
      Meter.ratio a.words.(0) (float_of_int a.trace_calls) );
    ("steer.decides", "count", decides);
    ("steer.stall_frac", "frac", Meter.ratio (float_of_int a.stalls) decides);
    ( "steer.ns_per_decide",
      "ns",
      Meter.ratio (float_of_int a.steer_ns) (float_of_int a.steer_sampled) );
    ("steer.words_per_decide", "words", Meter.ratio a.words.(1) decides);
    ("steer.vc_remaps", "count", counter t "vc.remaps");
    ("steer.remap_hops_mean", "hops", hops);
    ("uarch.engine_ns_per_uop", "ns/uop", engine_ns /. uops);
    ("uarch.engine_ns_per_cycle", "ns", Meter.ratio engine_ns run_cycles);
    ("uarch.engine_words_per_uop", "words/uop", named_words "uarch.run" /. uops);
  ]
  @ [
      ("uarch.create_reset_ms", "ms", named "uarch.create_reset" *. 1e-6);
      ("uarch.sim_cycles", "cycles", cycles);
      ("uarch.sim_ipc", "uops/cycle", Meter.ratio committed cycles);
      ( "uarch.alloc_stall_frac",
        "frac",
        Meter.ratio (total Stats.allocation_stalls) cycles );
      ( "topo.copies_per_kuop",
        "1/kuop",
        Meter.ratio (1000.0 *. total (fun s -> s.Stats.copies_generated)) committed
      );
      ( "topo.link_transfers_per_kuop",
        "1/kuop",
        Meter.ratio (1000.0 *. total (fun s -> s.Stats.link_transfers)) committed
      );
      ( "topo.copyq_stall_frac",
        "frac",
        Meter.ratio (total (fun s -> s.Stats.stall_copyq_full)) cycles );
    ]

(* The harness layer. [sweep_s] and the GC counts come from the caller's
   untraced pass; point times and the share of point time spent outside
   [Engine.run] come from the spans. *)
let harness_metrics t ~sweep_s ~minor_gcs ~major_gcs =
  let points = Spans.durations_ms t.spans "harness.point" in
  let total name = Meter.sum (Spans.durations_ms t.spans name) in
  let q p = if points = [] then 0.0 else Meter.quantile points p in
  [
    ("harness.sweep_s", "s", sweep_s);
    ( "harness.overhead_frac",
      "frac",
      1.0 -. Meter.ratio (total "uarch.run") (total "harness.point") );
    ("harness.point_ms_p50", "ms", q 0.5);
    ("harness.point_ms_p95", "ms", q 0.95);
    ("harness.minor_gcs", "count", float_of_int minor_gcs);
    ("harness.major_gcs", "count", float_of_int major_gcs);
  ]
