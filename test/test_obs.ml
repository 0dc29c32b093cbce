(* Tests for the observability layer: JSON encoding, counters,
   the collector ring, interval telemetry, the Chrome trace exporter
   and the zero-overhead-when-off guarantee of the engine. *)

open Clusteer_isa
open Clusteer_trace
open Clusteer_uarch
open Clusteer_obs

(* The paper's OP knobs, for the policies built below. *)
let { Clusteer.Configuration.stall_threshold; imbalance_limit; _ } =
  Clusteer.Configuration.default_params

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Json ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("whole", Json.Float 3.0);
        ("s", Json.Str "a\"b\\c\nd\tunicode \xc3\xa9");
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> check_bool "round trip" true (Json.equal doc parsed)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_parse_numbers () =
  (match Json.of_string "17" with
  | Ok (Json.Int 17) -> ()
  | _ -> Alcotest.fail "plain int");
  (match Json.of_string "1.25e2" with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "exp float" 125.0 f
  | _ -> Alcotest.fail "float with exponent");
  (* A float that happens to be whole must encode with a decimal point
     so it parses back as a Float, not an Int. *)
  match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "whole float stays float"

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check_bool "trailing garbage" true (bad "{} x");
  check_bool "bare word" true (bad "nope");
  check_bool "unterminated string" true (bad "\"abc");
  check_bool "missing value" true (bad "{\"k\":}");
  check_bool "empty input" true (bad "")

let test_json_non_finite () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error e ->
          check_bool (text ^ ": " ^ e) true
            (String.starts_with ~prefix:"number out of range" e)
      | Ok _ -> Alcotest.failf "%s parsed" text)
    [ "1e999"; "-1e999"; "[1.5e400]" ];
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite is null" "null"
        (Json.to_string (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_json_float_round_trip =
  QCheck.Test.make ~name:"of_string (to_string (Float f)) is finite" ~count:2000
    QCheck.(
      oneof
        [
          float;
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; Float.max_float;
              -.Float.max_float; Float.min_float; 5e-324; -0.0; 1e15; 1e300;
            ];
        ])
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Float.is_finite f && Float.is_finite g
      | Ok Json.Null -> not (Float.is_finite f)
      | Ok _ | Error _ -> false)

let test_json_accessors () =
  let doc = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 0.5) ] in
  check_bool "member hit" true (Json.member "a" doc = Some (Json.Int 3));
  check_bool "member miss" true (Json.member "z" doc = None);
  check_bool "to_int" true (Json.to_int (Json.Int 7) = Some 7);
  check_bool "to_int rejects float" true (Json.to_int (Json.Float 7.0) = None);
  check_bool "to_float of int" true (Json.to_float (Json.Int 2) = Some 2.0)

(* ---- Counters -------------------------------------------------------- *)

let test_counters_basic () =
  let r = Counters.create () in
  let c = Counters.counter ~registry:r "test.a" in
  Counters.incr c;
  Counters.add c 4;
  check_int "value" 5 (Counters.value c);
  (* Interning: same name, same counter. *)
  let c' = Counters.counter ~registry:r "test.a" in
  Counters.incr c';
  check_int "interned" 6 (Counters.value c);
  check_bool "listed" true (Counters.counters r = [ ("test.a", 6) ]);
  Counters.reset r;
  check_int "reset zeroes" 0 (Counters.value c);
  check_bool "registration survives reset" true
    (Counters.counters r = [ ("test.a", 0) ])

let test_histogram_buckets () =
  let r = Counters.create () in
  let h = Counters.histogram ~registry:r "test.h" in
  (* 0 -> bucket 0; 1,2 -> bucket 1; 3..6 -> bucket 2 *)
  List.iter (Counters.observe h) [ 0; 1; 2; 3; 6; -5 ];
  check_int "count" 6 (Counters.hist_count h);
  check_int "sum (negative clamped)" 12 (Counters.hist_sum h);
  check_int "max" 6 (Counters.hist_max h);
  check_bool "buckets" true (Counters.buckets h = [| 2; 2; 2 |]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Counters.hist_mean h)

(* [observe_n h v k] leaves a histogram exactly as [k] single observes
   of [v] would, after any history and for k = 0 too. *)
let prop_observe_n =
  QCheck.Test.make ~name:"observe_n = k observes" ~count:300
    QCheck.(
      triple
        (small_list (int_range (-5) 5000))
        (int_range (-10) 100_000)
        (int_range 0 40))
    (fun (history, v, k) ->
      let fill bulk =
        let r = Counters.create () in
        let h = Counters.histogram ~registry:r "h" in
        List.iter (Counters.observe h) history;
        if bulk then Counters.observe_n h v k
        else
          for _ = 1 to k do
            Counters.observe h v
          done;
        (h, Json.to_string (Counters.to_json r))
      in
      let hb, jb = fill true and hs, js = fill false in
      Counters.buckets hb = Counters.buckets hs
      && Counters.hist_count hb = Counters.hist_count hs
      && Counters.hist_sum hb = Counters.hist_sum hs
      && Counters.hist_max hb = Counters.hist_max hs
      && List.for_all
           (fun p -> Counters.percentile hb p = Counters.percentile hs p)
           [ 0.5; 0.9; 0.99 ]
      && jb = js)

let test_observe_n_zero () =
  let r = Counters.create () in
  let h = Counters.histogram ~registry:r "h" in
  Counters.observe h 3;
  Counters.observe_n h 1000 0;
  check_int "count" 1 (Counters.hist_count h);
  check_int "max untouched" 3 (Counters.hist_max h);
  Counters.observe_n h 1000 (-2);
  check_int "negative k records nothing" 1 (Counters.hist_count h)

let test_counters_json () =
  let r = Counters.create () in
  Counters.add (Counters.counter ~registry:r "c") 3;
  Counters.observe (Counters.histogram ~registry:r "h") 1;
  match Json.of_string (Json.to_string (Counters.to_json r)) with
  | Ok doc ->
      check_bool "counter in json" true
        (Option.bind (Json.member "counters" doc) (Json.member "c")
        = Some (Json.Int 3))
  | Error e -> Alcotest.failf "counters json unparseable: %s" e

(* ---- Collector ring -------------------------------------------------- *)

let stall_at cycle = Event.Stall { cycle; reason = Event.Iq_full }

let test_collector_overflow () =
  let col = Collector.create ~capacity:4 () in
  let sink = Collector.sink col in
  for c = 1 to 10 do
    sink.Sink.emit (stall_at c)
  done;
  check_int "total emitted" 10 (Collector.event_count col);
  check_int "dropped oldest" 6 (Collector.dropped col);
  let kept = List.map Event.cycle (Collector.events col) in
  check_bool "most recent window, oldest first" true (kept = [ 7; 8; 9; 10 ])

let test_sink_tee () =
  let a = Collector.create () and b = Collector.create () in
  let tee = Sink.tee (Collector.sink a) (Collector.sink b) in
  tee.Sink.emit (stall_at 1);
  check_int "first sink" 1 (Collector.event_count a);
  check_int "second sink" 1 (Collector.event_count b)

(* ---- Engine-driven telemetry ---------------------------------------- *)

(* Single-block program of [n] micro-ops built by [make_uop]. *)
let straightline n make_uop =
  let b = Program.Builder.create ~name:"t" ~nregs_per_class:16 () in
  let uops = List.init n (fun i -> make_uop b i) in
  let blk = Program.Builder.add_block b uops ~succs:[] in
  Program.Builder.finish b ~entry:blk

let independent_program n =
  straightline n (fun b i ->
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int (i mod 8)) ())

let source_of program seed =
  let gen = Tracegen.create ~program ~branches:[||] ~streams:[||] ~seed in
  fun () -> Tracegen.next gen

let run_traced ?(warmup = 0) ?(interval = 0) ~uops program =
  let col = Collector.create ~interval () in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:program.Program.uop_count)
      ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ())
      ~obs:(Collector.sink col) ()
  in
  let stats = Engine.run ~warmup engine ~source:(source_of program 1) ~uops in
  (stats, col)

let check_sample_series ~interval ~(stats : Stats.t) samples =
  check_int "one sample per full interval"
    (stats.Stats.cycles / interval)
    (List.length samples);
  List.iteri
    (fun i (s : Interval.sample) ->
      check_int "starts after previous" ((i * interval) + 1) s.Interval.t_start;
      check_int "covers exactly one interval" ((i + 1) * interval)
        s.Interval.t_end;
      check_bool "non-negative deltas" true
        (s.Interval.committed >= 0 && s.Interval.dispatched >= 0);
      check_bool "contains its own midpoint" true
        (Interval.contains s s.Interval.t_start))
    samples

let test_interval_boundaries () =
  let interval = 64 in
  let stats, col = run_traced ~interval ~uops:2000 (independent_program 16) in
  let samples = Collector.samples col in
  check_bool "produced samples" true (samples <> []);
  check_sample_series ~interval ~stats samples;
  (* The sampled committed counts sum to the cumulative count at the
     last interval boundary: nothing is lost or double-counted. *)
  let sampled = List.fold_left (fun a s -> a + s.Interval.committed) 0 samples in
  check_bool "sampled <= total" true (sampled <= stats.Stats.committed);
  check_bool "only the tail missing" true
    (stats.Stats.committed - sampled
    <= 8 * (stats.Stats.cycles mod interval) + 8);
  (* Every retained event is stamped in measured time and lands inside
     the sample covering its cycle. *)
  List.iter
    (fun ev ->
      let c = Event.cycle ev in
      check_bool "measured-time stamp" true (c >= 1 && c <= stats.Stats.cycles);
      check_bool "in exactly one sample" true
        (List.length (List.filter (fun s -> Interval.contains s c) samples)
        <= 1))
    (Collector.events col)

let test_interval_warmup_reset () =
  let interval = 32 in
  let stats, col =
    run_traced ~warmup:500 ~interval ~uops:1000 (independent_program 16)
  in
  (* The sink is suspended during warmup and the measured clock restarts
     at the reset, so the series is exactly the measured phase. *)
  check_sample_series ~interval ~stats (Collector.samples col);
  List.iter
    (fun ev ->
      check_bool "no warmup events" true
        (Event.cycle ev >= 1 && Event.cycle ev <= stats.Stats.cycles))
    (Collector.events col)

let test_zero_overhead_guard () =
  let p = independent_program 16 in
  let run obs =
    let engine =
      Engine.create ~config:Config.default_2c
        ~annot:(Annot.none ~uop_count:p.Program.uop_count)
        ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ())
        ?obs ()
    in
    Engine.run ~warmup:200 engine ~source:(source_of p 1) ~uops:2000
  in
  let plain = run None in
  let col = Collector.create ~interval:16 () in
  let traced = run (Some (Collector.sink col)) in
  check_bool "collector saw the run" true (Collector.event_count col > 0);
  check_bool "statistics identical with and without sink" true
    (Stats.equal plain traced)

(* ---- Chrome trace ---------------------------------------------------- *)

let test_chrome_trace_wellformed () =
  let stats, col = run_traced ~interval:64 ~uops:2000 (independent_program 16) in
  ignore stats;
  let doc =
    Chrome_trace.to_json ~clusters:2 ~events:(Collector.events col)
      ~samples:(Collector.samples col)
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "trace not valid JSON: %s" e
  | Ok parsed ->
      let evs =
        match Json.member "traceEvents" parsed with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "traceEvents missing"
      in
      check_bool "non-empty" true (evs <> []);
      let phases = List.filter_map (Json.member "ph") evs in
      check_int "every event has a phase" (List.length evs)
        (List.length phases);
      List.iter
        (fun ph ->
          check_bool "known phase" true
            (match ph with
            | Json.Str ("M" | "i" | "X" | "C") -> true
            | _ -> false))
        phases;
      let names =
        List.filter_map
          (fun e ->
            match Json.member "name" e with
            | Some (Json.Str s) -> Some s
            | _ -> None)
          evs
      in
      check_bool "has steer instants" true (List.mem "steer" names);
      check_bool "has ipc counter track" true (List.mem "ipc" names);
      List.iter
        (fun e ->
          match (Json.member "ph" e, Json.member "ts" e) with
          | Some (Json.Str "M"), _ -> ()
          | _, Some (Json.Int ts) ->
              check_bool "timestamps non-negative" true (ts >= 0)
          | _ -> Alcotest.fail "non-metadata event without integer ts")
        evs

(* ---- Canonical stall order ------------------------------------------- *)

let test_stall_order_matches_stats () =
  (* Event.stall_names is the canonical order; Stats.stall_fields and
     Stats.snapshot must index stalls the same way. *)
  let s = Stats.create ~clusters:2 in
  s.Stats.stall_iq_full <- 1;
  s.Stats.stall_copyq_full <- 2;
  s.Stats.stall_rob_full <- 3;
  s.Stats.stall_lsq_full <- 4;
  s.Stats.stall_regfile <- 5;
  s.Stats.stall_policy <- 6;
  s.Stats.stall_empty <- 7;
  check_int "dense reasons" Event.stall_reason_count
    (Array.length Event.stall_names);
  List.iteri
    (fun i (name, v) ->
      check_string "field order" Event.stall_names.(i) name;
      check_int "field value" (i + 1) v;
      check_int "snapshot order" (i + 1) (Stats.snapshot s).Interval.stalls.(i))
    (Stats.stall_fields s);
  check_int "total" 28 (Stats.total_stalls s)

(* ---- Percentiles ----------------------------------------------------- *)

let check_float = Alcotest.(check (float 1e-9))

let test_percentiles () =
  let r = Counters.create () in
  let h = Counters.histogram ~registry:r "p" in
  check_float "empty histogram" 0.0 (Counters.percentile h 0.5);
  List.iter (Counters.observe h) [ 0; 1; 2; 3 ];
  (* Buckets [|1;2;1|]: rank 2.0 lands mid-bucket-1 (values 1-2). *)
  check_float "p50 interpolates" 1.5 (Counters.percentile h 0.5);
  check_float "p90 clamps to max" 3.0 (Counters.percentile h 0.9);
  check_float "p99 clamps to max" 3.0 (Counters.percentile h 0.99);
  check_float "p<=0 clamps" 0.0 (Counters.percentile h (-1.0));
  check_float "p>=1 clamps" 3.0 (Counters.percentile h 2.0);
  let u = Counters.histogram ~registry:r "u" in
  for v = 0 to 99 do
    Counters.observe u v
  done;
  (* Uniform 0..99: rank 50 falls in bucket 5 (31-62, 32 entries) at
     fraction 19/32; rank 99 in bucket 6, whose top clamps to 99. *)
  check_float "p50 uniform" 49.40625 (Counters.percentile u 0.5);
  Alcotest.(check (float 1e-6))
    "p99 uniform"
    (63.0 +. (36.0 /. 37.0 *. 36.0))
    (Counters.percentile u 0.99);
  (* The JSON snapshot carries the same quantiles. *)
  match Json.member "histograms" (Counters.to_json r) with
  | Some (Json.Obj hs) -> (
      match List.assoc_opt "p" hs with
      | Some hj -> (
          match Json.member "p50" hj with
          | Some (Json.Float f) -> check_float "json p50" 1.5 f
          | _ -> Alcotest.fail "p50 missing from histogram json")
      | None -> Alcotest.fail "histogram missing from json")
  | _ -> Alcotest.fail "histograms object missing"

(* ---- Prometheus exposition ------------------------------------------ *)

let test_expo_golden () =
  let r = Counters.create () in
  let c = Counters.counter ~registry:r "serve.requests" in
  Counters.add c 3;
  let h = Counters.histogram ~registry:r "lat.us" in
  List.iter (Counters.observe h) [ 0; 1; 2; 3 ];
  let golden =
    String.concat "\n"
      [
        "# TYPE serve_requests counter";
        "serve_requests 3";
        "# TYPE lat_us histogram";
        "lat_us_bucket{le=\"0\"} 1";
        "lat_us_bucket{le=\"2\"} 3";
        "lat_us_bucket{le=\"6\"} 4";
        "lat_us_bucket{le=\"+Inf\"} 4";
        "lat_us_sum 6";
        "lat_us_count 4";
        "# TYPE lat_us_quantile gauge";
        "lat_us_quantile{q=\"0.5\"} 1.5";
        "lat_us_quantile{q=\"0.9\"} 3";
        "lat_us_quantile{q=\"0.99\"} 3";
        "";
      ]
  in
  check_string "pinned exposition bytes" golden (Expo.render r);
  (* A second scrape of an unchanged registry is byte-identical. *)
  check_string "scrape is deterministic" (Expo.render r) (Expo.render r)

let test_expo_name_mangling () =
  let r = Counters.create () in
  Counters.incr (Counters.counter ~registry:r "steer.remap/vc-2");
  let text = Expo.render r in
  check_bool "mangles to [a-zA-Z0-9_]" true
    (String.length text > 0
    && String.split_on_char '\n' text
       |> List.exists (fun l -> l = "steer_remap_vc_2 1"))

(* ---- Self-profiler --------------------------------------------------- *)

let test_profile_spans () =
  let now = ref 0 in
  let r = Counters.create () in
  let prof = Profile.create ~registry:r ~clock:(fun () -> !now) () in
  let s = Profile.span prof "x" in
  check_bool "span interns by name" true (s == Profile.span prof "x");
  (* Two enter/leave pairs accumulate into ONE observation per flush. *)
  Profile.enter s;
  now := 250_000_000;
  Profile.leave s;
  Profile.enter s;
  now := 750_000_000;
  Profile.leave s;
  let h = Counters.histogram ~registry:r "profile.x.ns" in
  check_int "nothing observed before flush" 0 (Counters.hist_count h);
  Profile.flush s;
  check_int "one observation per flush" 1 (Counters.hist_count h);
  check_int "accumulated nanoseconds" 750_000_000 (Counters.hist_sum h);
  (* A leave without a matching enter is ignored. *)
  Profile.leave s;
  Profile.flush s;
  check_int "unmatched leave ignored" 750_000_000 (Counters.hist_sum h);
  (* [time] wraps one call into one observation and passes the result. *)
  let v =
    Profile.time s (fun () ->
        now := !now + 125_000_000;
        42)
  in
  check_int "time returns the result" 42 v;
  check_int "time adds one observation" 3 (Counters.hist_count h);
  check_int "time observes the elapsed ns" 875_000_000 (Counters.hist_sum h);
  (* flush_all covers every span created from this profiler. *)
  let s2 = Profile.span prof "y" in
  Profile.enter s2;
  now := !now + 500_000_000;
  Profile.leave s2;
  Profile.flush_all prof;
  check_int "flush_all flushes new spans" 1
    (Counters.hist_count (Counters.histogram ~registry:r "profile.y.ns"))

let test_profile_zero_overhead () =
  (* Same contract as the event sink: an engine without a profiler must
     produce bit-identical stats to one with it attached. *)
  let p = independent_program 16 in
  let run profile =
    let engine =
      Engine.create ~config:Config.default_2c
        ~annot:(Annot.none ~uop_count:p.Program.uop_count)
        ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ())
        ?profile ()
    in
    Engine.run ~warmup:200 engine ~source:(source_of p 1) ~uops:2000
  in
  let plain = run None in
  let r = Counters.create () in
  let prof = Profile.create ~registry:r () in
  let profiled = run (Some prof) in
  check_bool "profiling does not perturb simulation" true
    (Stats.equal plain profiled);
  (* One flush per engine phase per run. *)
  List.iter
    (fun phase ->
      check_int
        (Printf.sprintf "one observation for %s" phase)
        1
        (Counters.hist_count
           (Counters.histogram ~registry:r ("profile.engine." ^ phase ^ ".ns"))))
    [ "fetch"; "dispatch"; "issue"; "writeback"; "commit" ]

(* ---- Run ledger ------------------------------------------------------ *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "clusteer-ledger-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let sample_registry () =
  let r = Counters.create () in
  Counters.add (Counters.counter ~registry:r "harness.uops_committed") 100;
  Counters.observe (Counters.histogram ~registry:r "profile.engine.commit.ns") 5;
  r

let no_gc = { Ledger.minor_words = 0.0; promoted_words = 0.0;
              major_collections = 0; minor_collections = 0 }

let append_run t ~label =
  Ledger.append t ~kind:"simulate" ~label ~started:1000.0 ~wall_s:0.5
    ~outcome:"ok" ~uops:100
    ~gc:{ no_gc with Ledger.minor_words = 250.0 }
    (sample_registry ())

let test_ledger_roundtrip () =
  with_temp_dir (fun dir ->
      let t = Ledger.create ~dir in
      check_int "fresh ledger is empty" 0 (List.length (Ledger.list t));
      let s1 = append_run t ~label:"a" in
      let s2 = append_run t ~label:"b" in
      check_int "ids are monotonic" 1 s1.Ledger.id;
      check_int "ids are monotonic" 2 s2.Ledger.id;
      check_float "minor words per uop" 2.5 s1.Ledger.minor_words_per_uop;
      (* Reopening recovers the same summaries and the next id. *)
      let t' = Ledger.create ~dir in
      let listed = Ledger.list t' in
      check_int "reopen sees both runs" 2 (List.length listed);
      check_string "labels survive" "a" (List.hd listed).Ledger.label;
      let s3 = append_run t' ~label:"c" in
      check_int "next id continues" 3 s3.Ledger.id;
      (* The full entry round-trips with GC stats and counter snapshot. *)
      match Ledger.load t' 1 with
      | None -> Alcotest.fail "run 1 must load"
      | Some doc -> (
          (match Json.member "kind" doc with
          | Some (Json.Str k) -> check_string "kind" "simulate" k
          | _ -> Alcotest.fail "kind missing");
          (match
             Option.bind (Json.member "gc" doc)
               (Json.member "engine_minor_words_per_uop")
           with
          | Some (Json.Float f) -> check_float "gc words/uop" 2.5 f
          | _ -> Alcotest.fail "engine_minor_words_per_uop missing");
          match
            Option.bind (Json.member "counters" doc) (Json.member "histograms")
          with
          | Some (Json.Obj hs) ->
              check_bool "profiler snapshot embedded" true
                (List.mem_assoc "profile.engine.commit.ns" hs)
          | _ -> Alcotest.fail "counter snapshot missing"))

let test_ledger_crash_recovery () =
  with_temp_dir (fun dir ->
      let t = Ledger.create ~dir in
      ignore (append_run t ~label:"a");
      ignore (append_run t ~label:"b");
      (* Simulate a crash mid-append: garbage and a torn line in the
         index must be skipped, not fatal. *)
      let oc =
        open_out_gen
          [ Open_append; Open_creat ]
          0o644
          (Filename.concat dir "index.jsonl")
      in
      output_string oc "this is not json\n{\"id\":3,\"ki";
      close_out oc;
      let t' = Ledger.create ~dir in
      check_int "torn lines skipped" 2 (List.length (Ledger.list t'));
      check_int "ids not reused" 3 (append_run t' ~label:"c").Ledger.id;
      (* Even with the index gone, run files stop id reuse. *)
      Sys.remove (Filename.concat dir "index.jsonl");
      let t'' = Ledger.create ~dir in
      check_int "index lost, summaries lost" 0 (List.length (Ledger.list t''));
      check_int "ids recovered from run files" 4
        (append_run t'' ~label:"d").Ledger.id)

let test_ledger_prune () =
  with_temp_dir (fun dir ->
      let t = Ledger.create ~dir in
      for i = 1 to 3 do
        ignore (append_run t ~label:(string_of_int i))
      done;
      check_int "prune removes the oldest" 2 (Ledger.prune t ~keep:1);
      (match Ledger.list t with
      | [ s ] -> check_int "newest survives" 3 s.Ledger.id
      | l -> Alcotest.failf "expected one summary, got %d" (List.length l));
      check_bool "pruned file deleted" false
        (Sys.file_exists (Filename.concat dir "run-000001.json"));
      check_bool "kept file intact" true
        (Sys.file_exists (Filename.concat dir "run-000003.json"));
      (* The rewritten index is what a fresh open sees. *)
      let t' = Ledger.create ~dir in
      check_int "prune rewrote the index" 1 (List.length (Ledger.list t'));
      check_int "prune below count is a no-op" 0 (Ledger.prune t' ~keep:10))

(* Every entry records how the program that wrote it was built. *)
let test_ledger_build () =
  with_temp_dir (fun dir ->
      let t = Ledger.create ~dir in
      ignore (append_run t ~label:"a");
      let field name =
        match
          Option.bind (Ledger.load t 1) (fun doc ->
              Option.bind (Json.member "build" doc) (Json.member name))
        with
        | Some (Json.Str v) -> v
        | _ -> Alcotest.failf "build.%s missing" name
      in
      check_string "profile" Clusteer_obs.Build_info.profile (field "profile");
      check_bool "profile named" true (field "profile" <> "");
      check_string "compiler" Sys.ocaml_version (field "ocaml"))

let test_ledger_gc_accounting () =
  check_float "words per uop" 2.0
    (Ledger.minor_words_per_uop
       { no_gc with Ledger.minor_words = 100.0 }
       ~uops:50);
  check_float "zero uops guard" 0.0
    (Ledger.minor_words_per_uop
       { no_gc with Ledger.minor_words = 100.0 }
       ~uops:0);
  let d =
    Ledger.gc_sub
      { Ledger.minor_words = 10.0; promoted_words = 4.0;
        major_collections = 3; minor_collections = 7 }
      { Ledger.minor_words = 6.0; promoted_words = 1.0;
        major_collections = 1; minor_collections = 2 }
  in
  check_float "delta minor words" 4.0 d.Ledger.minor_words;
  check_int "delta majors" 2 d.Ledger.major_collections;
  (match Json.member "engine_minor_words_per_uop" (Ledger.gc_json ~uops:2 d) with
  | Some (Json.Float f) -> check_float "gc_json ratio" 2.0 f
  | _ -> Alcotest.fail "gc_json must carry the ratio");
  (* gc_now really moves when we allocate. *)
  let before = Ledger.gc_now () in
  let junk = List.init 10_000 (fun i -> (i, string_of_int i)) in
  ignore (Sys.opaque_identity junk);
  let d = Ledger.gc_sub (Ledger.gc_now ()) before in
  check_bool "allocation is visible" true (d.Ledger.minor_words > 0.0)

let () =
  Alcotest.run "clusteer_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_parse_numbers;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_float_round_trip;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters_basic;
          Alcotest.test_case "histogram" `Quick test_histogram_buckets;
          Alcotest.test_case "json" `Quick test_counters_json;
          QCheck_alcotest.to_alcotest prop_observe_n;
          Alcotest.test_case "observe_n with k = 0" `Quick test_observe_n_zero;
        ] );
      ( "collector",
        [
          Alcotest.test_case "overflow" `Quick test_collector_overflow;
          Alcotest.test_case "tee" `Quick test_sink_tee;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "interval boundaries" `Quick
            test_interval_boundaries;
          Alcotest.test_case "warmup reset" `Quick test_interval_warmup_reset;
          Alcotest.test_case "zero overhead" `Quick test_zero_overhead_guard;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_wellformed;
          Alcotest.test_case "stall order" `Quick test_stall_order_matches_stats;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "interpolation" `Quick test_percentiles ] );
      ( "expo",
        [
          Alcotest.test_case "golden" `Quick test_expo_golden;
          Alcotest.test_case "name mangling" `Quick test_expo_name_mangling;
        ] );
      ( "profile",
        [
          Alcotest.test_case "spans" `Quick test_profile_spans;
          Alcotest.test_case "zero overhead" `Quick test_profile_zero_overhead;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "roundtrip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "crash recovery" `Quick test_ledger_crash_recovery;
          Alcotest.test_case "prune" `Quick test_ledger_prune;
          Alcotest.test_case "gc accounting" `Quick test_ledger_gc_accounting;
          Alcotest.test_case "build recorded" `Quick test_ledger_build;
        ] );
    ]
