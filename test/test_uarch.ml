(* Tests for the microarchitecture simulator: configuration, caches,
   memory system, branch predictor, statistics and the engine itself. *)

open Clusteer_isa
open Clusteer_trace
open Clusteer_uarch

(* The paper's OP knobs, for the policies built below. *)
let { Clusteer.Configuration.stall_threshold; imbalance_limit; _ } =
  Clusteer.Configuration.default_params

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Config --------------------------------------------------------- *)

let test_config_defaults () =
  check_int "2c" 2 Config.default_2c.Config.clusters;
  check_int "4c" 4 Config.default_4c.Config.clusters;
  Config.validate Config.default_2c;
  Config.validate Config.default_4c;
  check_int "iq" 48 Config.default_2c.Config.int_iq_size;
  check_int "copyq" 24 Config.default_2c.Config.copy_q_size;
  check_int "mem" 500 Config.default_2c.Config.memory_latency

let test_config_validation () =
  Alcotest.check_raises "bad clusters"
    (Invalid_argument "Config: clusters must be positive") (fun () ->
      Config.validate { Config.default_2c with Config.clusters = 0 })

let test_config_describe () =
  let rows = Config.describe Config.default_2c in
  check_bool "non-empty" true (List.length rows >= 8);
  check_bool "mentions LSQ" true
    (List.exists (fun (_, v) -> String.length v > 0 && String.length v < 200) rows)

(* ---- Cache ----------------------------------------------------------- *)

let tiny_cache () =
  (* 2 sets x 2 ways x 64B lines = 256B *)
  Cache.create
    { Config.size_bytes = 256; ways = 2; line_bytes = 64; hit_latency = 1 }

let test_cache_geometry () =
  let c = tiny_cache () in
  check_int "sets" 2 (Cache.sets c);
  check_int "ways" 2 (Cache.ways c)

let test_cache_hit_after_fill () =
  let c = tiny_cache () in
  check_bool "first miss" true (Cache.access c ~addr:0 ~write:false = Cache.Miss);
  check_bool "then hit" true (Cache.access c ~addr:0 ~write:false = Cache.Hit);
  check_bool "same line hit" true (Cache.access c ~addr:63 ~write:false = Cache.Hit);
  check_bool "next line miss" true (Cache.access c ~addr:64 ~write:false = Cache.Miss)

let test_cache_lru_eviction () =
  let c = tiny_cache () in
  (* Set 0 holds lines with addr mod 128 = 0: 0, 128, 256... *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:128 ~write:false);
  (* Touch 0 so 128 is LRU, then bring in 256: 128 must be evicted. *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:256 ~write:false);
  check_bool "0 still resident" true (Cache.probe c ~addr:0);
  check_bool "128 evicted" false (Cache.probe c ~addr:128);
  check_bool "256 resident" true (Cache.probe c ~addr:256)

let test_cache_stats_and_reset () =
  let c = tiny_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  Cache.reset_stats c;
  check_int "reset" 0 (Cache.hits c + Cache.misses c)

let test_cache_invalidate () =
  let c = tiny_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.invalidate_all c;
  check_bool "gone" false (Cache.probe c ~addr:0)

let test_cache_touch_no_stats () =
  let c = tiny_cache () in
  Cache.touch c ~addr:0;
  check_int "no stats from touch" 0 (Cache.hits c + Cache.misses c);
  check_bool "line resident" true (Cache.probe c ~addr:0)

let test_cache_power_of_two_required () =
  Alcotest.check_raises "non power-of-two sets"
    (Invalid_argument "Cache.create: set count must be a power of two")
    (fun () ->
      ignore
        (Cache.create
           { Config.size_bytes = 192; ways = 1; line_bytes = 64; hit_latency = 1 }))

(* ---- Tracecache ----------------------------------------------------------- *)

let test_tracecache_hits_after_fill () =
  let tc = Tracecache.create ~size_uops:48 ~line_uops:6 ~ways:4 in
  check_bool "first touch misses" false (Tracecache.lookup tc ~static_id:0);
  check_bool "same line hits" true (Tracecache.lookup tc ~static_id:5);
  check_bool "next line misses" false (Tracecache.lookup tc ~static_id:6);
  check_int "stats" 2 (Tracecache.misses tc);
  check_int "stats" 1 (Tracecache.hits tc)

let test_tracecache_lru () =
  (* 8 lines, 4 ways, 2 sets: lines 0,2,4,6,8 share set 0. *)
  let tc = Tracecache.create ~size_uops:48 ~line_uops:6 ~ways:4 in
  List.iter (fun l -> ignore (Tracecache.lookup tc ~static_id:(l * 6)))
    [ 0; 2; 4; 6 ];
  ignore (Tracecache.lookup tc ~static_id:0) (* refresh line 0 *);
  ignore (Tracecache.lookup tc ~static_id:48) (* line 8 evicts LRU (2) *);
  check_bool "line 0 kept" true (Tracecache.lookup tc ~static_id:0);
  check_bool "line 2 evicted" false (Tracecache.lookup tc ~static_id:12)

let test_tracecache_reset () =
  let tc = Tracecache.create ~size_uops:48 ~line_uops:6 ~ways:4 in
  ignore (Tracecache.lookup tc ~static_id:0);
  Tracecache.reset_stats tc;
  check_int "reset" 0 (Tracecache.hits tc + Tracecache.misses tc)

let test_tracecache_validation () =
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Tracecache.create: set count must be a power of two")
    (fun () -> ignore (Tracecache.create ~size_uops:36 ~line_uops:6 ~ways:2))

(* ---- Memsys ------------------------------------------------------------ *)

let test_memsys_latencies () =
  let m = Memsys.create Config.default_2c in
  (* Cold: L1 miss + L2 miss -> memory. *)
  check_int "cold" (3 + 13 + 500) (Memsys.load_latency m ~addr:0);
  (* Now resident everywhere. *)
  check_int "l1 hit" 3 (Memsys.load_latency m ~addr:0)

let test_memsys_l2_hit_after_l1_eviction () =
  let m = Memsys.create Config.default_2c in
  (* Fill far beyond L1 (32KB) but within L2 (2MB): early lines are
     evicted from L1 but still in L2. *)
  for i = 0 to 2047 do
    ignore (Memsys.load_latency m ~addr:(i * 64))
  done;
  check_int "l2 hit" (3 + 13) (Memsys.load_latency m ~addr:0)

let test_memsys_prewarm () =
  let m = Memsys.create Config.default_2c in
  Memsys.prewarm m ~base:0 ~bytes:4096;
  check_int "prewarmed l1 hit" 3 (Memsys.load_latency m ~addr:64);
  check_int "stats clean" 0 (Memsys.l1_misses m + Memsys.l1_hits m - 1)

(* [create ~prewarm] and [reset ~prewarm] compute each level's final
   state instead of touching line by line; both must leave exactly the
   lines, in exactly the LRU order, of {!Memsys.prewarm} applied range
   after range. The geometries are small so that random range lists
   overflow them: a 128-byte L1 line against the 64-byte prewarm
   stride, a direct-mapped L1, a 4-way L2. Ranges overlap, start
   unaligned, may be zero bytes long or larger than the L2. *)
let prewarm_geometries =
  let cache size_bytes ways line_bytes =
    { Config.size_bytes; ways; line_bytes; hit_latency = 1 }
  in
  [|
    (cache 4096 4 64, cache 16384 4 64);
    (cache 8192 2 128, cache 32768 8 64);
    (cache 1024 1 64, cache 65536 16 128);
    (cache 2048 4 128, cache 16384 4 128);
  |]

let arb_prewarm_case =
  let open QCheck.Gen in
  let range =
    pair
      (oneof [ int_bound (1 lsl 17); map (fun l -> l * 64) (int_bound 2048) ])
      (oneof
         [
           return 0;
           int_bound 200;
           int_bound 8192;
           int_range 40_000 140_000;
         ])
  in
  QCheck.make
    ~print:(fun (geo, ranges, other) ->
      Printf.sprintf "geometry %d, ranges [%s], other (%d, %d)" geo
        (String.concat "; "
           (List.map (fun (b, n) -> Printf.sprintf "(%d, %d)" b n) ranges))
        (fst other) (snd other))
    (triple
       (int_bound (Array.length prewarm_geometries - 1))
       (list_size (int_bound 6) range)
       range)

let prop_memsys_prewarm_matches_touch =
  QCheck.Test.make ~name:"~prewarm = line-by-line prewarm"
    ~count:150 arb_prewarm_case (fun (geo, ranges, other) ->
      let l1d, l2 = prewarm_geometries.(geo) in
      let cfg = { Config.default_2c with Config.l1d; l2 } in
      let touched = Memsys.create cfg in
      List.iter (fun (base, bytes) -> Memsys.prewarm touched ~base ~bytes) ranges;
      let created = Memsys.create ~prewarm:ranges cfg in
      let reset = Memsys.create ~prewarm:[ other ] cfg in
      for i = 0 to 499 do
        ignore (Memsys.load_latency reset ~addr:(i * 4160));
        Memsys.store reset ~addr:(i * 832)
      done;
      Memsys.reset ~prewarm:ranges reset;
      let probes = List.init 3000 (fun i -> (i * 67) + (i mod 5)) in
      let resident m = List.map (fun addr -> Memsys.l1_resident m ~addr) probes in
      let stats m =
        Memsys.l1_hits m + Memsys.l1_misses m + Memsys.l2_hits m
        + Memsys.l2_misses m
      in
      (* Loads in probe order expose the L2 contents and both levels'
         replacement order. *)
      let loads m = List.map (fun addr -> Memsys.load_latency m ~addr) probes in
      let expected = resident touched in
      if resident created <> expected then
        QCheck.Test.fail_report "create: L1 lines differ";
      if resident reset <> expected then
        QCheck.Test.fail_report "reset: L1 lines differ";
      if stats created <> 0 || stats reset <> 0 then
        QCheck.Test.fail_report "prewarm counted statistics";
      let expected = loads touched in
      if loads created <> expected then
        QCheck.Test.fail_report "create: load latencies differ";
      if loads reset <> expected then
        QCheck.Test.fail_report "reset: load latencies differ";
      true)

let test_cache_prewarm_allocates_nothing () =
  let c = Cache.create Config.default_2c.Config.l2 in
  let ranges = [ (0, 1 lsl 20); (4096, 100); (1 lsl 22, 3 lsl 20) ] in
  Cache.prewarm c ~stride:64 ranges;
  let before = Gc.minor_words () in
  Cache.prewarm c ~stride:64 ranges;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  check_bool "newest line resident" true
    (Cache.probe c ~addr:((7 lsl 20) - 64));
  check_bool "oldest range evicted" false (Cache.probe c ~addr:0)

let test_memsys_prefetch_next_line () =
  let cfg = { Config.default_2c with Config.prefetch_next_line = true } in
  let m = Memsys.create cfg in
  (* miss at 0 prefetches line 64: the next sequential access hits *)
  ignore (Memsys.load_latency m ~addr:0);
  check_int "next line L1 hit" 3 (Memsys.load_latency m ~addr:64);
  (* without prefetch the same pattern misses *)
  let m2 = Memsys.create Config.default_2c in
  ignore (Memsys.load_latency m2 ~addr:0);
  check_bool "baseline misses" true (Memsys.load_latency m2 ~addr:64 > 3)

let test_memsys_stats () =
  let m = Memsys.create Config.default_2c in
  ignore (Memsys.load_latency m ~addr:0);
  ignore (Memsys.load_latency m ~addr:0);
  check_int "l1" 1 (Memsys.l1_hits m);
  check_int "l1 misses" 1 (Memsys.l1_misses m);
  check_int "l2 misses" 1 (Memsys.l2_misses m);
  Memsys.reset_stats m;
  check_int "reset" 0 (Memsys.l1_hits m)

(* ---- Bpred --------------------------------------------------------------- *)

let test_bpred_learns_bias () =
  let p = Bpred.create ~bits:10 in
  for _ = 1 to 200 do
    Bpred.update p ~pc:5 ~taken:true
  done;
  check_bool "predicts taken" true (Bpred.predict p ~pc:5);
  check_bool "high accuracy" true (Bpred.accuracy p > 0.95)

let test_bpred_learns_alternation () =
  let p = Bpred.create ~bits:10 in
  for i = 1 to 400 do
    Bpred.update p ~pc:5 ~taken:(i mod 2 = 0)
  done;
  (* Global history disambiguates the alternating pattern. *)
  check_bool "learns pattern" true (Bpred.accuracy p > 0.8)

let test_bpred_random_is_hard () =
  let p = Bpred.create ~bits:10 in
  let rng = Clusteer_util.Rng.create 77 in
  Bpred.reset_stats p;
  for _ = 1 to 2000 do
    Bpred.update p ~pc:9 ~taken:(Clusteer_util.Rng.bool rng)
  done;
  check_bool "near coin flip" true
    (Bpred.accuracy p > 0.35 && Bpred.accuracy p < 0.65)

let test_bpred_stats_reset () =
  let p = Bpred.create ~bits:8 in
  Bpred.update p ~pc:0 ~taken:true;
  Bpred.reset_stats p;
  check_int "lookups" 0 (Bpred.lookups p);
  check_int "mispredicts" 0 (Bpred.mispredicts p)

(* ---- Stats ------------------------------------------------------------------ *)

let test_stats_ipc_and_metrics () =
  let s = Stats.create ~clusters:2 in
  s.Stats.cycles <- 100;
  s.Stats.committed <- 250;
  Alcotest.(check (float 1e-9)) "ipc" 2.5 (Stats.ipc s);
  s.Stats.copies_generated <- 50;
  Alcotest.(check (float 1e-9)) "copy rate" 0.2 (Stats.copy_rate s);
  s.Stats.stall_iq_full <- 3;
  s.Stats.stall_policy <- 4;
  s.Stats.stall_copyq_full <- 5;
  check_int "allocation stalls" 12 (Stats.allocation_stalls s)

let test_stats_balance_entropy () =
  let s = Stats.create ~clusters:2 in
  s.Stats.per_cluster_dispatched.(0) <- 100;
  s.Stats.per_cluster_dispatched.(1) <- 100;
  Alcotest.(check (float 1e-9)) "even" 1.0 (Stats.balance_entropy s);
  s.Stats.per_cluster_dispatched.(1) <- 0;
  Alcotest.(check (float 1e-9)) "skewed" 0.0 (Stats.balance_entropy s)

let test_stats_reset () =
  let s = Stats.create ~clusters:2 in
  s.Stats.cycles <- 10;
  s.Stats.per_cluster_dispatched.(0) <- 5;
  Stats.reset s;
  check_int "cycles" 0 s.Stats.cycles;
  check_int "per-cluster" 0 s.Stats.per_cluster_dispatched.(0)

(* ---- Engine ------------------------------------------------------------------- *)

(* Single-block program of [n] micro-ops built by [make_uop]. *)
let straightline n make_uop =
  let b = Program.Builder.create ~name:"t" ~nregs_per_class:16 () in
  let uops = List.init n (fun i -> make_uop b i) in
  let blk = Program.Builder.add_block b uops ~succs:[] in
  Program.Builder.finish b ~entry:blk

let source_of program ?(branches = [||]) ?(streams = [||]) seed =
  let gen = Tracegen.create ~program ~branches ~streams ~seed in
  fun () -> Tracegen.next gen

let run_with ?(config = Config.default_2c) ?annot ~policy program ~uops =
  let annot =
    match annot with
    | Some a -> a
    | None -> Annot.none ~uop_count:program.Program.uop_count
  in
  let engine = Engine.create ~config ~annot ~policy () in
  Engine.run engine ~source:(source_of program 1) ~uops

let serial_chain_program n =
  straightline n (fun b _ ->
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) ~srcs:[| Reg.int 0 |] ())

let independent_program n =
  straightline n (fun b i ->
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int (i mod 8)) ())

let test_engine_commits_exactly () =
  let p = independent_program 16 in
  let stats = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:500 in
  check_bool "committed in window" true
    (stats.Stats.committed >= 500 && stats.Stats.committed < 508)

let test_engine_serial_chain_rate () =
  (* A serial 1-cycle chain issues at most one per cycle. *)
  let p = serial_chain_program 16 in
  let stats = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:400 in
  check_bool "at least 1 cycle per uop" true (stats.Stats.cycles >= 400);
  check_bool "no pathological overhead" true (stats.Stats.cycles < 500)

let test_engine_independent_throughput () =
  (* Independent ALUs on one cluster: bounded by the 2-wide INT issue. *)
  let p = independent_program 16 in
  let one = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:2000 in
  check_bool "about 2 ipc" true
    (Stats.ipc one > 1.6 && Stats.ipc one <= 2.05);
  (* OP over two clusters doubles the issue bandwidth. *)
  let op = run_with ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ()) p ~uops:2000 in
  check_bool "faster with 2 clusters" true (op.Stats.cycles < one.Stats.cycles)

let test_engine_one_cluster_no_copies () =
  let p = serial_chain_program 32 in
  let stats = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:1000 in
  check_int "zero copies" 0 stats.Stats.copies_generated;
  check_int "one cluster only" 0 stats.Stats.per_cluster_dispatched.(1)

let test_engine_forced_copies () =
  (* Alternate a serial chain across clusters via a static annotation:
     every transition needs a copy. *)
  let n = 16 in
  let p = serial_chain_program n in
  let annot = Annot.create_static ~scheme:"alt" ~uop_count:n in
  Array.iteri (fun i _ -> annot.Annot.cluster_of.(i) <- i mod 2) annot.Annot.cluster_of;
  let policy = Clusteer_steer.Static.make ~name:"alt" ~annot in
  let stats = run_with ~annot ~policy p ~uops:400 in
  check_bool "copies generated" true (stats.Stats.copies_generated > 300);
  check_bool "copies executed" true
    (stats.Stats.copies_executed <= stats.Stats.copies_generated);
  (* Same chain kept on one cluster is faster. *)
  let mono = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:400 in
  check_bool "cross-cluster chain slower" true
    (stats.Stats.cycles > mono.Stats.cycles)

let test_engine_determinism () =
  let p = independent_program 32 in
  let s1 = run_with ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ()) p ~uops:1000 in
  let s2 = run_with ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ()) p ~uops:1000 in
  check_int "same cycles" s1.Stats.cycles s2.Stats.cycles;
  check_int "same copies" s1.Stats.copies_generated s2.Stats.copies_generated

let test_engine_load_latency_counted () =
  let b = Program.Builder.create ~name:"ld" ~nregs_per_class:16 () in
  let s = Program.Builder.stream b in
  let ld =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0) ~srcs:[| Reg.int 1 |]
      ~stream:s ()
  in
  let blk = Program.Builder.add_block b [ ld ] ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let streams = [| Mem_model.Strided { base = 0; stride = 0o10; footprint = 64 } |] in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:1)
      ~policy:(Clusteer_steer.One_cluster.make ())
      ~prewarm:[ (0, 64) ] ()
  in
  let stats =
    Engine.run engine ~source:(source_of program ~streams 1) ~uops:100
  in
  (* loads are counted at dispatch, which runs ahead of commit *)
  check_bool "loads counted" true (stats.Stats.loads >= 100);
  check_bool "l1 hits dominate" true (stats.Stats.l1_hits >= 99)

let test_engine_branch_mispredict_costs () =
  let mk_branch_prog () =
    let b = Program.Builder.create ~name:"br" ~nregs_per_class:16 () in
    let m = Program.Builder.branch_model b in
    let blk = Program.Builder.reserve_block b in
    let exit_ = Program.Builder.reserve_block b in
    let uops =
      [
        Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) ();
        Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 1) ();
        Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 2) ();
        Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 0 |] ~branch_ref:m ();
      ]
    in
    Program.Builder.define_block b blk uops ~succs:[ exit_; blk ];
    Program.Builder.define_block b exit_ [] ~succs:[];
    Program.Builder.finish b ~entry:blk
  in
  let run branches =
    let program = mk_branch_prog () in
    let engine =
      Engine.create ~config:Config.default_2c
        ~annot:(Annot.none ~uop_count:4)
        ~policy:(Clusteer_steer.One_cluster.make ())
        ()
    in
    Engine.run engine ~source:(source_of program ~branches 1) ~uops:2000
  in
  let predictable = run [| Branch_model.Loop 1000 |] in
  let random = run [| Branch_model.Bernoulli 0.5 |] in
  check_bool "few mispredicts when predictable" true
    (predictable.Stats.branch_mispredicts < 50);
  check_bool "many mispredicts when random" true
    (random.Stats.branch_mispredicts > 100);
  check_bool "mispredicts cost cycles" true
    (random.Stats.cycles > predictable.Stats.cycles)

let test_engine_reset_equals_fresh () =
  (* Dirty an engine with one policy and trace seed, then [Engine.reset]
     it in place onto a different policy and seed: caches, predictor,
     trace cache, rename state and every queue must return to their
     post-create state, so the replay is bit-identical to a freshly
     created engine. This is the contract the parallel harness's
     engine-reuse cache leans on. *)
  let b = Program.Builder.create ~name:"reset" ~nregs_per_class:16 () in
  let s = Program.Builder.stream b in
  let m = Program.Builder.branch_model b in
  let blk = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  let uops =
    [
      Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0) ~srcs:[| Reg.int 1 |]
        ~stream:s ();
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 2)
        ~srcs:[| Reg.int 0 |] ();
      Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 2 |] ~branch_ref:m
        ();
    ]
  in
  Program.Builder.define_block b blk uops ~succs:[ exit_; blk ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  let program = Program.Builder.finish b ~entry:blk in
  let streams =
    [| Mem_model.Strided { base = 0; stride = 0o10; footprint = 4096 } |]
  in
  let branches = [| Branch_model.Bernoulli 0.7 |] in
  let annot = Annot.none ~uop_count:program.Program.uop_count in
  let prewarm = [ (0, 4096) ] in
  let dirty =
    Engine.create ~config:Config.default_2c ~annot
      ~policy:(Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ()) ~prewarm ()
  in
  ignore
    (Engine.run dirty ~source:(source_of program ~branches ~streams 1)
       ~uops:1500);
  Engine.reset ~prewarm dirty ~annot ~policy:(Clusteer_steer.Dep.make ());
  let reused =
    Engine.run dirty ~source:(source_of program ~branches ~streams 2)
      ~uops:1500
  in
  let fresh_engine =
    Engine.create ~config:Config.default_2c ~annot
      ~policy:(Clusteer_steer.Dep.make ()) ~prewarm ()
  in
  let fresh =
    Engine.run fresh_engine ~source:(source_of program ~branches ~streams 2)
      ~uops:1500
  in
  check_bool "reset-in-place bit-identical to fresh" true
    (Stats.equal reused fresh);
  check_bool "the run did real work" true
    (fresh.Stats.committed >= 1500 && fresh.Stats.branch_mispredicts > 0);
  (* Reset with stores still in flight: a divide chain feeds every
     store, and the next iteration's load reads the address the store
     wrote, so the ROB ends the first run full of incomplete stores
     that loads wait on. None of them may leak into the next run, whose
     first loads come before any store. *)
  let b = Program.Builder.create ~name:"stores" ~nregs_per_class:16 () in
  let st = Program.Builder.stream b in
  let uops =
    [
      Program.Builder.uop b Opcode.Load ~dst:(Reg.int 3) ~srcs:[| Reg.int 4 |]
        ~stream:st ();
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 5)
        ~srcs:[| Reg.int 3 |] ();
      Program.Builder.uop b Opcode.Int_div ~dst:(Reg.int 1)
        ~srcs:[| Reg.int 1 |] ();
      Program.Builder.uop b Opcode.Store ~srcs:[| Reg.int 1 |] ~stream:st ();
    ]
  in
  let blk = Program.Builder.add_block b uops ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let streams = [| Mem_model.Strided { base = 0; stride = 8; footprint = 8 } |] in
  let annot = Annot.none ~uop_count:program.Program.uop_count in
  let prewarm = [ (0, 64) ] in
  let policy () = Clusteer_steer.One_cluster.make () in
  let run e = Engine.run e ~source:(source_of program ~streams 1) ~uops:300 in
  let e = Engine.create ~config:Config.default_2c ~annot ~policy:(policy ()) ~prewarm () in
  ignore (run e);
  Engine.reset ~prewarm e ~annot ~policy:(policy ());
  let reused = Stats.copy (run e) in
  let fresh =
    run (Engine.create ~config:Config.default_2c ~annot ~policy:(policy ()) ~prewarm ())
  in
  check_bool "reset with stores in flight = fresh" true (Stats.equal reused fresh)

(* ---- reset onto another point ----------------------------------- *)

module Configuration = Clusteer.Configuration
module Synth = Clusteer_workloads.Synth
module Spec2000 = Clusteer_workloads.Spec2000

let prewarm_of (w : Synth.t) =
  Array.to_list (Array.map Mem_model.extent w.Synth.streams)

(* One measured run of [config] on workload [w]: a fresh policy every
   time (policies carry state), the machine's fabric handed to the
   steering layer as the harness does. *)
let point_run engine_of machine config (w : Synth.t) =
  let params =
    {
      Configuration.default_params with
      Configuration.topology = Some machine.Config.topology;
    }
  in
  let annot, policy =
    Configuration.prepare config ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters:machine.Config.clusters ~params ()
  in
  let engine = engine_of ~annot ~policy ~prewarm:(prewarm_of w) in
  let gen = Synth.trace w ~seed:3 in
  Stats.copy
    (Engine.run ~warmup:0 engine
       ~source:(fun () -> Tracegen.next gen)
       ~uops:1200)

let hier2x4 =
  match Clusteer_topo.Topology.of_name "hier2x4" with
  | Ok topo ->
      {
        (Config.default ~clusters:topo.Clusteer_topo.Topology.clusters) with
        Config.topology = topo;
      }
  | Error e -> failwith e

(* Every Table 3 configuration, on the 2-cluster point-to-point machine
   and the 8-cluster hierarchical one: an engine reset onto point B
   after a run on point A, and the same engine reset onto B once more,
   must both match a freshly created engine on B. *)
let test_engine_reset_onto_other_point () =
  let a = Synth.build (Spec2000.find "gzip-1") in
  let b = Synth.build (Spec2000.find "swim") in
  check_bool "points prewarm different ranges" true
    (prewarm_of a <> prewarm_of b);
  let machines = [ Config.default_2c; hier2x4 ] in
  List.iter
    (fun machine ->
      let topo = Clusteer_topo.Topology.name machine.Config.topology in
      List.iter
        (fun config ->
          let label what =
            Printf.sprintf "%s/%s: %s" topo (Configuration.name config) what
          in
          let fresh ~annot ~policy ~prewarm =
            Engine.create ~config:machine ~annot ~policy ~prewarm ()
          in
          let expected = point_run fresh machine config b in
          let reused = ref None in
          let keep ~annot ~policy ~prewarm =
            match !reused with
            | Some e ->
                Engine.reset ~prewarm e ~annot ~policy;
                e
            | None ->
                let e = fresh ~annot ~policy ~prewarm in
                reused := Some e;
                e
          in
          ignore (point_run keep machine config a);
          let after_a = point_run keep machine config b in
          let after_b = point_run keep machine config b in
          check_bool (label "reset after another point = fresh") true
            (Stats.equal expected after_a);
          check_bool (label "reset after the same point = fresh") true
            (Stats.equal expected after_b);
          check_bool (label "did real work") true
            (expected.Stats.committed >= 1200 && expected.Stats.l1_hits > 0))
        (Configuration.table3 ~clusters:machine.Config.clusters))
    machines

(* A reset that copies the caches from a prewarmed twin, as the harness
   does for every configuration of a point after the first, must leave
   the engine as [reset ~prewarm] does: the same L1 lines, the same
   latencies for 3000 loads, zeroed statistics and the same run. Every
   Table 3 configuration, on both fabrics; each engine has run on
   another point first, so nothing is left over by chance. *)
let test_engine_reset_from_twin () =
  let w = Synth.build (Spec2000.find "mcf") in
  let other = Synth.build (Spec2000.find "gzip-1") in
  let prewarm = prewarm_of w in
  let st = Random.State.make [| 17 |] in
  let probes =
    List.init 3000 (fun i ->
        if i mod 10 = 0 then Random.State.full_int st (1 lsl 40)
        else
          let base, bytes = List.nth prewarm (Random.State.int st (List.length prewarm)) in
          base + Random.State.full_int st (max 1 bytes))
  in
  List.iter
    (fun machine ->
      let topo = Clusteer_topo.Topology.name machine.Config.topology in
      let configs = Configuration.table3 ~clusters:machine.Config.clusters in
      let prepare config (w : Synth.t) =
        let params =
          {
            Configuration.default_params with
            Configuration.topology = Some machine.Config.topology;
          }
        in
        Configuration.prepare config ~program:w.Synth.program
          ~likely:w.Synth.likely ~clusters:machine.Config.clusters ~params ()
      in
      let run e (w : Synth.t) =
        Stats.copy
          (Engine.run_columns ~warmup:0 e
             ~trace:(Columns.of_generator (Synth.trace w ~seed:3))
             ~uops:1200)
      in
      (* An engine that has run [config] on the other point. *)
      let dirty config =
        let annot, policy = prepare config other in
        let e =
          Engine.create ~config:machine ~annot ~policy
            ~prewarm:(prewarm_of other) ()
        in
        ignore (run e other);
        e
      in
      let twin = dirty (List.hd configs) in
      (let annot, policy = prepare (List.hd configs) w in
       Engine.reset ~prewarm twin ~annot ~policy);
      List.iter
        (fun config ->
          let label what =
            Printf.sprintf "%s/%s: %s" topo (Configuration.name config) what
          in
          let copied = dirty config and computed = dirty config in
          let reset_both () =
            (let annot, policy = prepare config w in
             Engine.reset ~warm_from:twin copied ~annot ~policy);
            let annot, policy = prepare config w in
            Engine.reset ~prewarm computed ~annot ~policy
          in
          reset_both ();
          let mc = Engine.For_testing.memsys copied
          and mp = Engine.For_testing.memsys computed in
          let counts m =
            [ Memsys.l1_hits m; Memsys.l1_misses m; Memsys.l2_hits m; Memsys.l2_misses m ]
          in
          Alcotest.(check (list int)) (label "statistics zeroed") [ 0; 0; 0; 0 ] (counts mc);
          let resident m = List.map (fun addr -> Memsys.l1_resident m ~addr) probes in
          Alcotest.(check (list bool)) (label "same L1 lines") (resident mp) (resident mc);
          check_bool (label "some lines resident") true (List.mem true (resident mc));
          let latencies m = List.map (fun addr -> Memsys.load_latency m ~addr) probes in
          Alcotest.(check (list int)) (label "same load latencies") (latencies mp) (latencies mc);
          reset_both ();
          check_bool (label "same run") true (Stats.equal (run computed w) (run copied w)))
        configs;
      let annot, policy = prepare (List.hd configs) w in
      let e = dirty (List.hd configs) in
      Alcotest.check_raises (topo ^ ": not from itself")
        (Invalid_argument
           "Engine.reset: ~warm_from needs another engine that has not run \
            since its reset") (fun () ->
          Engine.reset ~warm_from:e e ~annot ~policy);
      Alcotest.check_raises (topo ^ ": not from an engine that ran")
        (Invalid_argument
           "Engine.reset: ~warm_from needs another engine that has not run \
            since its reset") (fun () ->
          Engine.reset ~warm_from:(dirty (List.hd configs)) e ~annot ~policy);
      Alcotest.check_raises (topo ^ ": not with ~prewarm")
        (Invalid_argument "Engine.reset: ~prewarm and ~warm_from are exclusive")
        (fun () -> Engine.reset ~prewarm ~warm_from:twin e ~annot ~policy))
    [ Config.default_2c; hier2x4 ]

let test_engine_warmup_resets () =
  let p = independent_program 16 in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:16)
      ~policy:(Clusteer_steer.One_cluster.make ())
      ()
  in
  let stats =
    Engine.run ~warmup:500 engine ~source:(source_of p 1) ~uops:1000
  in
  check_bool "only measured committed" true
    (stats.Stats.committed >= 1000 && stats.Stats.committed < 1008)

let test_engine_rob_stall_on_long_miss () =
  (* A cold far load at the ROB head with a stream of ALUs behind it
     must fill the ROB. *)
  let b = Program.Builder.create ~name:"miss" ~nregs_per_class:16 () in
  let s = Program.Builder.stream b in
  let uops =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 8) ~srcs:[| Reg.int 1 |]
      ~stream:s ()
    :: List.init 20 (fun i ->
           Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int (i mod 8)) ())
  in
  let blk = Program.Builder.add_block b uops ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let streams =
    [| Mem_model.Uniform { base = 0; footprint = 64 lsl 20; granule = 8 } |]
  in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:21)
      ~policy:(Clusteer_steer.One_cluster.make ())
      ()
  in
  let stats =
    Engine.run engine ~source:(source_of program ~streams 1) ~uops:3000
  in
  (* The 256-entry register file binds before the 512-entry ROB, so
     back-pressure may surface as either stall. *)
  check_bool "back-pressure observed" true
    (stats.Stats.stall_rob_full + stats.Stats.stall_regfile > 0)

let test_engine_regfile_pressure () =
  (* A tiny register file throttles in-flight destinations. *)
  let p = independent_program 16 in
  let config = { Config.default_2c with Config.int_regfile = 8 } in
  let stats =
    run_with ~config ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:2000
  in
  check_bool "regfile stalls" true (stats.Stats.stall_regfile > 0);
  check_bool "still commits" true (stats.Stats.committed >= 2000);
  (* The default 256-entry file never binds on the same workload. *)
  let free = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:2000 in
  check_int "no stalls at 256" 0 free.Stats.stall_regfile

let test_engine_rejects_rogue_policy () =
  (* Fault injection: a policy that steers out of range must fail with
     a clean diagnostic, not a segfault-ish array error. *)
  let rogue =
    {
      Policy.name = "rogue";
      decide = (fun _ _ -> Policy.Dispatch_to 7);
      repeat = None;
      uses_vote_unit = false;
    }
  in
  let p = independent_program 4 in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:4)
      ~policy:rogue ()
  in
  Alcotest.check_raises "clean failure"
    (Invalid_argument
       "Engine: policy rogue steered micro-op 0 to invalid cluster 7")
    (fun () -> ignore (Engine.run engine ~source:(source_of p 1) ~uops:10))

let test_engine_static_id_table () =
  (* Slots and the fetch queue hold static ids, resolved through a
     table filled at fetch: one id names one micro-op until the next
     reset, ids past the annotation's count still resolve, and a reset
     forgets the previous program. *)
  let a = independent_program 4 and b = serial_chain_program 4 in
  let policy = Clusteer_steer.One_cluster.make () in
  let annot = Annot.none ~uop_count:1 in
  let engine = Engine.create ~config:Config.default_2c ~annot ~policy () in
  check_bool "ids past the annotation resolve" true
    (Stats.equal
       (Engine.run engine ~source:(source_of a 1) ~uops:200)
       (run_with ~policy a ~uops:200));
  (* One source that switches from [a] to [b] in the middle of the
     run: [b]'s first micro-op reuses id 0. *)
  Engine.reset engine ~annot ~policy;
  let from_a = source_of a 1 and from_b = source_of b 1 in
  let fetched = ref 0 in
  let switching () =
    incr fetched;
    if !fetched <= 100 then from_a () else from_b ()
  in
  Alcotest.check_raises "a second micro-op under a seen id"
    (Invalid_argument "Engine: static id 0 names two different micro-ops")
    (fun () -> ignore (Engine.run engine ~source:switching ~uops:400));
  Engine.reset engine ~annot ~policy;
  check_bool "reset forgets the previous program" true
    (Stats.equal
       (Engine.run engine ~source:(source_of b 1) ~uops:200)
       (run_with ~policy b ~uops:200))

let test_engine_second_run_needs_reset () =
  (* [run] stops on the committed count and bounds cycles from a fresh
     machine; a second run on the same state is rejected instead of
     returning the first run's statistics. *)
  let p = independent_program 4 in
  let policy = Clusteer_steer.One_cluster.make () in
  let annot = Annot.none ~uop_count:4 in
  let engine = Engine.create ~config:Config.default_2c ~annot ~policy () in
  ignore (Engine.run engine ~source:(source_of p 1) ~uops:200);
  let already_ran =
    Invalid_argument "Engine.run: engine already ran; call Engine.reset first"
  in
  Alcotest.check_raises "second run without reset" already_ran (fun () ->
      ignore (Engine.run engine ~source:(source_of p 1) ~uops:200));
  Alcotest.check_raises "the reference loop too" already_ran (fun () ->
      ignore
        (Engine.For_testing.run_every_cycle engine ~source:(source_of p 1)
           ~uops:200));
  Engine.reset engine ~annot ~policy;
  check_bool "a reset allows the next run" true
    (Stats.equal
       (Engine.run engine ~source:(source_of p 1) ~uops:200)
       (run_with ~policy p ~uops:200))

let test_energy_estimate_shape () =
  let p = independent_program 16 in
  let one = run_with ~policy:(Clusteer_steer.One_cluster.make ()) p ~uops:2000 in
  let e = Energy.estimate ~clusters:2 one in
  check_bool "total positive" true (e.Energy.total > 0.0);
  check_bool "total = dynamic + static" true
    (abs_float (e.Energy.total -. (e.Energy.dynamic +. e.Energy.static_))
    < 1e-6);
  check_bool "no copy energy without copies" true (e.Energy.copies = 0.0);
  (* Forced copies cost energy. *)
  let n = 16 in
  let chain = serial_chain_program n in
  let annot = Annot.create_static ~scheme:"alt" ~uop_count:n in
  Array.iteri (fun i _ -> annot.Annot.cluster_of.(i) <- i mod 2) annot.Annot.cluster_of;
  let policy = Clusteer_steer.Static.make ~name:"alt" ~annot in
  let alt = run_with ~annot ~policy chain ~uops:2000 in
  let e_alt = Energy.estimate ~clusters:2 alt in
  check_bool "copy energy positive" true (e_alt.Energy.copies > 0.0)

let test_energy_costs_scale_with_clusters () =
  let c2 = Energy.default_costs ~clusters:2 in
  let c4 = Energy.default_costs ~clusters:4 in
  check_bool "smaller clusters issue cheaper" true
    (c4.Energy.issue < c2.Energy.issue)

let test_engine_store_load_forwarding () =
  (* A load to the address of an in-flight older store must wait for
     the store; to an unrelated address it must not. Compare cycles of
     a dependent pattern vs an independent one. *)
  let mk same_addr =
    let b = Program.Builder.create ~name:"fwd" ~nregs_per_class:16 () in
    let s0 = Program.Builder.stream b in
    let s1 = Program.Builder.stream b in
    (* long-latency producer feeding the store's data *)
    let slow =
      Program.Builder.uop b Opcode.Int_div ~dst:(Reg.int 1)
        ~srcs:[| Reg.int 1 |] ()
    in
    let st =
      Program.Builder.uop b Opcode.Store ~srcs:[| Reg.int 1; Reg.int 2 |]
        ~stream:s0 ()
    in
    let ld =
      Program.Builder.uop b Opcode.Load ~dst:(Reg.int 3) ~srcs:[| Reg.int 4 |]
        ~stream:(if same_addr then s0 else s1) ()
    in
    let use =
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 5)
        ~srcs:[| Reg.int 3 |] ()
    in
    let blk = Program.Builder.add_block b [ slow; st; ld; use ] ~succs:[] in
    Program.Builder.finish b ~entry:blk
  in
  (* both streams at the same fixed address when same_addr *)
  let streams =
    [|
      Mem_model.Strided { base = 0; stride = 8; footprint = 8 };
      Mem_model.Strided { base = 4096; stride = 8; footprint = 8 };
    |]
  in
  let run program =
    let engine =
      Engine.create ~config:Config.default_2c
        ~annot:(Annot.none ~uop_count:4)
        ~policy:(Clusteer_steer.One_cluster.make ())
        ~prewarm:[ (0, 64); (4096, 64) ] ()
    in
    Engine.run engine ~source:(source_of program ~streams 1) ~uops:1000
  in
  let dependent = run (mk true) in
  let independent = run (mk false) in
  check_bool "aliasing load waits for the slow store" true
    (dependent.Stats.cycles > independent.Stats.cycles)

let test_engine_lsq_backpressure () =
  (* More in-flight memory operations than LSQ entries: dispatch must
     stall on the LSQ, not crash or deadlock. *)
  let b = Program.Builder.create ~name:"lsq" ~nregs_per_class:16 () in
  let st = Program.Builder.stream b in
  (* a serial divide chain at the head keeps commits slow while many
     independent loads pile into the LSQ *)
  let div =
    Program.Builder.uop b Opcode.Int_div ~dst:(Reg.int 1) ~srcs:[| Reg.int 1 |] ()
  in
  let loads =
    List.init 12 (fun i ->
        Program.Builder.uop b Opcode.Load
          ~dst:(Reg.int (2 + (i mod 8)))
          ~srcs:[| Reg.int 0 |] ~stream:st ())
  in
  let blk = Program.Builder.add_block b (div :: loads) ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let streams = [| Mem_model.Strided { base = 0; stride = 8; footprint = 4096 } |] in
  let config = { Config.default_2c with Config.lsq_size = 8 } in
  let engine =
    Engine.create ~config
      ~annot:(Annot.none ~uop_count:13)
      ~policy:(Clusteer_steer.One_cluster.make ())
      ~prewarm:[ (0, 4096) ] ()
  in
  let stats = Engine.run engine ~source:(source_of program ~streams 1) ~uops:2000 in
  check_bool "lsq stalls observed" true (stats.Stats.stall_lsq_full > 0);
  check_bool "still commits" true (stats.Stats.committed >= 2000)

let test_engine_copy_queue_backpressure () =
  (* A tiny copy queue with a copy-heavy placement: dispatch must stall
     on the copy queue and still make progress. *)
  let n = 12 in
  let p = serial_chain_program n in
  let annot = Annot.create_static ~scheme:"alt" ~uop_count:n in
  Array.iteri (fun i _ -> annot.Annot.cluster_of.(i) <- i mod 2) annot.Annot.cluster_of;
  let config = { Config.default_2c with Config.copy_q_size = 1 } in
  let stats =
    run_with ~config ~annot
      ~policy:(Clusteer_steer.Static.make ~name:"alt" ~annot)
      p ~uops:500
  in
  check_bool "copy-queue stalls observed" true (stats.Stats.stall_copyq_full > 0);
  check_bool "still commits" true (stats.Stats.committed >= 500)

(* Copies in transit outgrow the engine's initial copy-slot pool: every
   consumer sits in cluster 1 waiting for a value produced in cluster
   0, a 300-cycle link keeps the copies in flight, and a big INT queue
   lets hundreds of consumers wait at once. The figures are the
   simulator's from before slots were pooled; a reused engine (pool
   already grown) must repeat them. *)
let test_engine_copy_pool_grows () =
  let b = Program.Builder.create ~name:"transit" ~nregs_per_class:16 () in
  let uops =
    List.concat
      (List.init 8 (fun k ->
           [
             Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int k) ();
             Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int (8 + k))
               ~srcs:[| Reg.int k |] ();
           ]))
  in
  let blk = Program.Builder.add_block b uops ~succs:[] in
  let p = Program.Builder.finish b ~entry:blk in
  let n = p.Program.uop_count in
  let annot = Annot.create_static ~scheme:"split" ~uop_count:n in
  Array.iteri (fun i _ -> annot.Annot.cluster_of.(i) <- i mod 2) annot.Annot.cluster_of;
  let config =
    {
      Config.default_2c with
      Config.int_iq_size = 400;
      topology = Clusteer_topo.Topology.p2p ~link_latency:300 ~clusters:2 ();
    }
  in
  let policy () = Clusteer_steer.Static.make ~name:"split" ~annot in
  let e = Engine.create ~config ~annot ~policy:(policy ()) () in
  let first = Stats.copy (Engine.run e ~source:(source_of p 1) ~uops:3000) in
  check_int "cycles" 2056 first.Stats.cycles;
  check_int "committed" 3001 first.Stats.committed;
  check_int "copies generated" 1756 first.Stats.copies_generated;
  check_int "copies executed" 1501 first.Stats.copies_executed;
  check_int "link transfers" 1755 first.Stats.link_transfers;
  check_int "copy-queue stalls" 216 first.Stats.stall_copyq_full;
  Engine.reset e ~annot ~policy:(policy ());
  let again = Engine.run e ~source:(source_of p 1) ~uops:3000 in
  check_bool "reused engine repeats the run" true (Stats.equal first again)

(* Value tags come from a fixed pool that commit recycles, so a long
   run leaves the engine no larger than a short one: after a reset, the
   words reachable from it are the same after 200k micro-ops as after
   20k. *)
let test_engine_tag_pool_bounded () =
  let w = Synth.build (Spec2000.find "gzip-1") in
  let prewarm = prewarm_of w in
  let annot, policy =
    Configuration.prepare Configuration.Op ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters:2 ()
  in
  let e = Engine.create ~config:Config.default_2c ~annot ~policy ~prewarm () in
  let words_after uops =
    Engine.reset ~prewarm e ~annot ~policy;
    let trace = Columns.of_generator (Synth.trace w ~seed:3) in
    ignore (Engine.run_columns ~warmup:0 e ~trace ~uops);
    Engine.reset ~prewarm e ~annot ~policy;
    Obj.reachable_words (Obj.repr e)
  in
  let short = words_after 20_000 in
  check_int "words reachable after 200k uops = after 20k" short
    (words_after 200_000)

let test_engine_tracecache_stress () =
  (* A static footprint far beyond the trace cache forces steady-state
     misses; shrinking the cache must cost cycles. *)
  let wide = straightline 4000 (fun b i ->
      Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int (i mod 8)) ())
  in
  let run config =
    let engine =
      Engine.create ~config
        ~annot:(Annot.none ~uop_count:4000)
        ~policy:(Clusteer_steer.One_cluster.make ())
        ()
    in
    Engine.run engine ~source:(source_of wide 1) ~uops:8000
  in
  let big = run Config.default_2c in
  let tiny = run { Config.default_2c with Config.tc_size_uops = 48 } in
  check_bool "default cache holds the loop" true
    (big.Stats.tc_misses <= 4000 / 6 * 3);
  check_bool "tiny cache misses constantly" true
    (tiny.Stats.tc_misses > big.Stats.tc_misses);
  check_bool "misses cost cycles" true (tiny.Stats.cycles > big.Stats.cycles)

let test_engine_rejects_bad_args () =
  let p = independent_program 4 in
  let engine =
    Engine.create ~config:Config.default_2c
      ~annot:(Annot.none ~uop_count:4)
      ~policy:(Clusteer_steer.One_cluster.make ())
      ()
  in
  Alcotest.check_raises "zero uops"
    (Invalid_argument "Engine.run: uops must be positive") (fun () ->
      ignore (Engine.run engine ~source:(source_of p 1) ~uops:0))

(* ---- quiescence gate ------------------------------------------- *)

module Adversarial = Clusteer_workloads.Adversarial
module Counters = Clusteer_obs.Counters
module Topology = Clusteer_topo.Topology

(* The five fabrics; p2p, bus and ring at [clusters]. Links slower
   than a cycle let a copy the fabric refused become startable before
   the next event. *)
let fabric_machine ?(link_latency = 1) ~clusters name =
  let topo =
    match name with
    | "p2p" -> Topology.p2p ~link_latency ~clusters ()
    | "bus" -> Topology.bus ~link_latency ~clusters ()
    | "ring" -> Topology.ring ~link_latency ~clusters ()
    | "mesh4x2" -> Topology.mesh ~link_latency ~cols:4 ~rows:2 ()
    | _ -> Topology.hier ~link_latency ~groups:2 ~group_size:4 ()
  in
  { (Config.default ~clusters:topo.Topology.clusters) with Config.topology = topo }

let fabric_names = [ "p2p"; "bus"; "ring"; "mesh4x2"; "hier2x4" ]

(* Delays past the 1024 buckets the default machine's event wheel
   grows to: memory and uplink latencies above it put the wheel's
   growth with events pending, and [next_due] across long quiet
   stretches, against the reference. *)
let long_latency_machine ~link_latency =
  let topo =
    Topology.hier ~link_latency ~uplink_latency:1050 ~groups:2 ~group_size:4 ()
  in
  {
    (Config.default ~clusters:topo.Topology.clusters) with
    Config.topology = topo;
    memory_latency = 1100;
  }

(* The generator's machines: the five fabrics, then the long-latency
   one. *)
let gate_machine_names = fabric_names @ [ "hier2x4-long" ]

(* What one run leaves behind: final statistics, the counter registry
   (policy and engine instruments, profiler spans), and every sink
   event and interval snapshot in order. *)
type observed = {
  stats : Stats.t;
  registry : string;
  events : Clusteer_obs.Event.t list;
  snapshots : Clusteer_obs.Interval.snapshot list;
}

(* How a run steps: the production loop, the every-cycle reference, or
   the production loop with the invariant check after each step. *)
type runner = Gated | Reference | Checked

let run_of = function
  | Gated -> Engine.run
  | Reference -> Engine.For_testing.run_every_cycle
  | Checked -> Engine.For_testing.run_checked

(* With [sink] false nothing observes the run, so the engine may skip
   quiet cycles. *)
let observe_run ?(sink = true) ~runner ~machine ~config ~(w : Synth.t) ~warmup
    ~uops ~interval ~profiled () =
  let registry = Counters.create () in
  let params =
    {
      Configuration.default_params with
      Configuration.topology = Some machine.Config.topology;
    }
  in
  let annot, policy =
    Configuration.prepare config ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters:machine.Config.clusters ~params
      ~registry ()
  in
  let events = ref [] and snapshots = ref [] in
  let obs =
    {
      Clusteer_obs.Sink.emit = (fun e -> events := e :: !events);
      interval;
      on_snapshot = (fun s -> snapshots := s :: !snapshots);
    }
  in
  let profile =
    if profiled then
      Some (Clusteer_obs.Profile.create ~registry ~clock:(fun () -> 0) ())
    else None
  in
  let obs = if sink then Some obs else None in
  let engine =
    Engine.create ~config:machine ~annot ~policy ~prewarm:(prewarm_of w) ?obs
      ~registry ?profile ()
  in
  let gen = Synth.trace w ~seed:5 in
  let stats =
    Stats.copy
      ((run_of runner) ~warmup engine
         ~source:(fun () -> Tracegen.next gen)
         ~uops)
  in
  {
    stats;
    registry = Clusteer_obs.Json.to_string (Counters.to_json registry);
    events = List.rev !events;
    snapshots = List.rev !snapshots;
  }

(* The gated engine against the step-every-cycle reference. *)
let gate_matches_reference ~machine ~config ~w ~warmup ~uops ~interval
    ~profiled =
  let run runner =
    observe_run ~runner ~machine ~config ~w ~warmup ~uops ~interval ~profiled ()
  in
  let gated = run Gated and reference = run Reference in
  let fail what =
    QCheck.Test.fail_reportf "%s differs: %s on %s, warmup %d, interval %d"
      what (Configuration.name config)
      (Topology.name machine.Config.topology)
      warmup interval
  in
  if not (Stats.equal gated.stats reference.stats) then fail "stats"
  else if gated.registry <> reference.registry then fail "counter registry"
  else if gated.events <> reference.events then fail "event stream"
  else if gated.snapshots <> reference.snapshots then fail "interval snapshots"
  else gated.stats.Stats.committed >= uops && gated.snapshots <> []

(* Without a sink the engine also skips quiet cycles: the jumping
   engine, and the same engine with its invariants checked after every
   step, against the every-cycle reference. *)
let jump_matches_reference ~machine ~config ~w ~warmup ~uops ~profiled =
  let run runner =
    observe_run ~sink:false ~runner ~machine ~config ~w ~warmup ~uops
      ~interval:0 ~profiled ()
  in
  let reference = run Reference in
  let fail what =
    QCheck.Test.fail_reportf "%s differs without a sink: %s on %s, warmup %d"
      what (Configuration.name config)
      (Topology.name machine.Config.topology)
      warmup
  in
  List.for_all
    (fun (label, runner) ->
      let o =
        try run runner
        with Failure m -> fail (Printf.sprintf "%s run (%s)" label m)
      in
      if not (Stats.equal o.stats reference.stats) then fail (label ^ " stats")
      else if o.registry <> reference.registry then
        fail (label ^ " counter registry")
      else o.stats.Stats.committed >= uops)
    [ ("jumping", Gated); ("checked", Checked) ]

(* A random loop body over every opcode class: unpipelined divides,
   loads from a small hot stream and a 64 MB one (L2 misses that hold
   MSHRs), stores that alias loads, and a hard back-edge branch. *)
let random_program_workload seed =
  let rng = Clusteer_util.Rng.create seed in
  let pick n = Clusteer_util.Rng.int rng n in
  let b = Program.Builder.create ~name:"rand" ~nregs_per_class:16 () in
  let hot = Program.Builder.stream b and cold = Program.Builder.stream b in
  let m = Program.Builder.branch_model b in
  let body = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  let ops =
    Opcode.
      [| Int_alu; Int_alu; Int_mul; Int_div; Fp_add; Fp_mul; Fp_div; Load;
         Load; Store |]
  in
  let uop () =
    let op = ops.(pick (Array.length ops)) in
    let reg () = if Opcode.writes_fp op then Reg.fp (pick 8) else Reg.int (pick 8) in
    let srcs = Array.init (pick 3) (fun _ -> reg ()) in
    match op with
    | Opcode.Load ->
        Program.Builder.uop b op ~dst:(Reg.int (pick 8))
          ~srcs:[| Reg.int (pick 8) |]
          ~stream:(if pick 3 = 0 then cold else hot) ()
    | Opcode.Store -> Program.Builder.uop b op ~srcs ~stream:hot ()
    | _ -> Program.Builder.uop b op ~dst:(reg ()) ~srcs ()
  in
  let uops = List.init (4 + pick 20) (fun _ -> uop ()) in
  let branch =
    Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int (pick 8) |]
      ~branch_ref:m ()
  in
  Program.Builder.define_block b body (uops @ [ branch ]) ~succs:[ body; exit_ ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  let program = Program.Builder.finish b ~entry:body in
  {
    Synth.profile = Spec2000.find "gzip-1";
    program;
    branches = [| Branch_model.Bernoulli 0.8 |];
    streams =
      [|
        Mem_model.Strided { base = 0; stride = 8; footprint = 256 };
        Mem_model.Uniform { base = 1 lsl 20; footprint = 64 lsl 20; granule = 64 };
      |];
    likely = (fun _ -> None);
  }

(* One case: a workload, a fabric, a Table 3 configuration, and the
   run shape. Half the machines are shrunk (one MSHR, small queues) so
   blocked-entry horizons are common. *)
let arb_gate_case gen_workload =
  QCheck.make
    ~print:(fun ((seed, fabric, cfg, clusters), (link, tight, warmup, interval)) ->
      Printf.sprintf
        "seed %d, %s x%d (link %d), config #%d, tight %b, warmup %d, \
         interval %d"
        seed (List.nth gate_machine_names fabric) clusters link cfg tight warmup
        interval)
    QCheck.Gen.(
      pair
        (quad (int_bound 100_000)
           (int_bound (List.length fabric_names))
           (int_bound 6) (oneofl [ 2; 4 ]))
        (quad (int_range 1 3) bool (oneofl [ 0; 300 ]) (int_range 1 64)))
  |> fun arb ->
  QCheck.map_keep_input
    (fun ((seed, fabric, cfg, clusters), (link_latency, tight, warmup, interval)) ->
      let machine =
        if fabric = List.length fabric_names then
          long_latency_machine ~link_latency
        else
          fabric_machine ~link_latency ~clusters (List.nth fabric_names fabric)
      in
      let machine =
        if tight then
          {
            machine with
            Config.mshrs = 1;
            int_iq_size = 8;
            fp_iq_size = 8;
            copy_q_size = 2;
          }
        else machine
      in
      let configs = Configuration.table3 ~clusters:machine.Config.clusters in
      ( machine,
        List.nth configs (cfg mod List.length configs),
        gen_workload seed,
        warmup,
        interval ))
    arb

let gate_property ~name ~count gen_workload =
  QCheck.Test.make ~name ~count (arb_gate_case gen_workload)
    (fun (_, (machine, config, w, warmup, interval)) ->
      gate_matches_reference ~machine ~config ~w ~warmup ~uops:800 ~interval
        ~profiled:(warmup > 0))

let jump_property ~name ~count gen_workload =
  QCheck.Test.make ~name ~count (arb_gate_case gen_workload)
    (fun (_, (machine, config, w, warmup, _)) ->
      jump_matches_reference ~machine ~config ~w ~warmup ~uops:800
        ~profiled:(warmup > 0))

let random_programs = random_program_workload
let adversarial_shapes seed = Adversarial.synth (Adversarial.of_seed seed)

let prop_gate_random_programs =
  gate_property ~name:"gated = every-cycle on random programs" ~count:60
    random_programs

let prop_gate_adversarial =
  gate_property ~name:"gated = every-cycle on adversarial shapes" ~count:30
    adversarial_shapes

let prop_jump_random_programs =
  jump_property ~name:"jumping = checked = every-cycle on random programs"
    ~count:60 random_programs

let prop_jump_adversarial =
  jump_property ~name:"jumping = checked = every-cycle on adversarial shapes"
    ~count:30 adversarial_shapes

(* Every fabric sees each of the three adversarial generators. *)
let test_gate_adversarial_every_fabric () =
  List.iter
    (fun fabric ->
      let machine = fabric_machine ~link_latency:2 ~clusters:4 fabric in
      List.iter
        (fun (name, w) ->
          List.iter
            (fun config ->
              let label =
                Printf.sprintf "%s on %s under %s" name fabric
                  (Configuration.name config)
              in
              check_bool label true
                (gate_matches_reference ~machine ~config ~w ~warmup:200
                   ~uops:1000 ~interval:25 ~profiled:false);
              check_bool (label ^ " without a sink") true
                (jump_matches_reference ~machine ~config ~w ~warmup:200
                   ~uops:1000 ~profiled:false))
            [ Configuration.Op; Configuration.Vc { virtual_clusters = 2 } ])
        Adversarial.all)
    fabric_names

(* A divide chain: the only ready entry waits on a busy unpipelined
   unit, so every quiet cycle's horizon is the unit's free cycle. *)
let test_gate_unpipelined_horizon () =
  let p =
    straightline 4 (fun b i ->
        if i = 0 then
          Program.Builder.uop b Opcode.Int_div ~dst:(Reg.int 1)
            ~srcs:[| Reg.int 1 |] ()
        else
          Program.Builder.uop b Opcode.Int_div ~dst:(Reg.int (1 + i))
            ~srcs:[| Reg.int 0 |] ())
  in
  let annot = Annot.none ~uop_count:p.Program.uop_count in
  let run every_cycle =
    let e =
      Engine.create ~config:Config.default_2c ~annot
        ~policy:(Clusteer_steer.One_cluster.make ())
        ()
    in
    let run =
      if every_cycle then Engine.For_testing.run_every_cycle else Engine.run
    in
    Stats.copy (run ~warmup:40 e ~source:(source_of p 1) ~uops:400)
  in
  let gated = run false in
  check_bool "gated = every-cycle" true (Stats.equal gated (run true));
  check_bool "divides serialise on the unit" true
    (gated.Stats.cycles >= 400 * Opcode.latency Opcode.Int_div / 2)

(* A chain of loads that all miss to a memory three times slower than
   the default machine's event wheel is long: each load completes a
   full memory latency after it starts, never a wheel's length early. *)
let test_gate_memory_past_wheel () =
  let p =
    straightline 1 (fun b _ ->
        Program.Builder.uop b Opcode.Load ~dst:(Reg.int 1)
          ~srcs:[| Reg.int 1 |] ~stream:(Program.Builder.stream b) ())
  in
  let streams =
    [| Mem_model.Uniform { base = 0; footprint = 64 lsl 20; granule = 64 } |]
  in
  let config = { Config.default_2c with Config.memory_latency = 3000 } in
  let run every_cycle =
    let e =
      Engine.create ~config ~annot:(Annot.none ~uop_count:1)
        ~policy:(Clusteer_steer.One_cluster.make ())
        ()
    in
    let run =
      if every_cycle then Engine.For_testing.run_every_cycle else Engine.run
    in
    Stats.copy (run e ~source:(source_of p ~streams 1) ~uops:20)
  in
  let gated = run false in
  check_bool "gated = every-cycle" true (Stats.equal gated (run true));
  check_bool "misses take the memory latency" true
    (gated.Stats.cycles >= 20 * 3000 * 3 / 4)

(* A machine that cannot make progress must fail exactly as the
   reference does, whether the back-end waits on nothing (a policy that
   always stalls, consulted every cycle or repeated in bulk) or retries
   every cycle (no L1 read port), and must have charged the same
   cycles and stalls when it fails: a quiet stretch is skipped only up
   to the cycle bound. *)
let test_gate_deadlock () =
  let stall repeat =
    {
      Policy.name = "stall";
      decide = (fun _ _ -> Policy.Stall);
      repeat;
      uses_vote_unit = false;
    }
  in
  let load =
    straightline 2 (fun b i ->
        if i = 0 then
          Program.Builder.uop b Opcode.Load ~dst:(Reg.int 1)
            ~srcs:[| Reg.int 2 |] ~stream:(Program.Builder.stream b) ()
        else Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 3) ())
  in
  let streams = [| Mem_model.Strided { base = 0; stride = 8; footprint = 64 } |] in
  let no_port = { Config.default_2c with Config.l1_read_ports = 0 } in
  let outcome ~runner ~config ~policy ~warmup =
    let e =
      Engine.create ~config ~annot:(Annot.none ~uop_count:2) ~policy ()
    in
    match (run_of runner) ~warmup e ~source:(source_of load ~streams 1) ~uops:5 with
    | _ -> ("completed", Stats.copy (Engine.stats e))
    | exception Failure m -> (m, Stats.copy (Engine.stats e))
  in
  List.iter
    (fun (label, config, policy, warmup) ->
      let reference, ref_stats = outcome ~runner:Reference ~config ~policy ~warmup in
      List.iter
        (fun runner ->
          let m, stats = outcome ~runner ~config ~policy ~warmup in
          Alcotest.(check string) label reference m;
          check_bool (label ^ ": same stats at the failure") true
            (Stats.equal ref_stats stats))
        [ Gated; Checked ];
      check_bool (label ^ " deadlocks") true
        (String.starts_with ~prefix:"Engine.run: no forward progress" reference))
    [
      ("stalling policy", Config.default_2c, stall None, 0);
      ("stalling policy in warmup", Config.default_2c, stall None, 3);
      ( "repeated stalls",
        Config.default_2c,
        stall (Some (fun _ _ _ -> true)),
        0 );
      ( "repeated stalls in warmup",
        Config.default_2c,
        stall (Some (fun _ _ _ -> true)),
        3 );
      ("no read port", no_port, Clusteer_steer.One_cluster.make (), 0);
    ]

(* The jump is what makes blocked stretches cheap: on mcf, the slowest
   benchmark, most cycles are skipped, warm-up included. *)
let test_jump_fires () =
  let w = Synth.build (Spec2000.find "mcf") in
  List.iter
    (fun config ->
      let annot, policy =
        Configuration.prepare config ~program:w.Synth.program
          ~likely:w.Synth.likely ~clusters:2 ~registry:(Counters.create ()) ()
      in
      let e =
        Engine.create ~config:Config.default_2c ~annot ~policy
          ~prewarm:(prewarm_of w) ~registry:(Counters.create ()) ()
      in
      let gen = Synth.trace w ~seed:1 in
      ignore
        (Engine.run ~warmup:3000 e ~source:(fun () -> Tracegen.next gen)
           ~uops:6000);
      let steps = Engine.For_testing.steps e
      and clock = Engine.For_testing.clock e in
      check_bool
        (Printf.sprintf "%s steps %d of %d cycles" (Configuration.name config)
           steps clock)
        true
        (4 * steps < clock))
    [ Configuration.Op; Configuration.Vc { virtual_clusters = 2 } ]

let () =
  Alcotest.run "clusteer_uarch"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "describe" `Quick test_config_describe;
        ] );
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_cache_geometry;
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats_and_reset;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "touch" `Quick test_cache_touch_no_stats;
          Alcotest.test_case "power of two" `Quick test_cache_power_of_two_required;
          Alcotest.test_case "prewarm allocates nothing" `Quick
            test_cache_prewarm_allocates_nothing;
        ] );
      ( "tracecache",
        [
          Alcotest.test_case "hits after fill" `Quick test_tracecache_hits_after_fill;
          Alcotest.test_case "lru" `Quick test_tracecache_lru;
          Alcotest.test_case "reset" `Quick test_tracecache_reset;
          Alcotest.test_case "validation" `Quick test_tracecache_validation;
        ] );
      ( "memsys",
        [
          Alcotest.test_case "latencies" `Quick test_memsys_latencies;
          Alcotest.test_case "l2 hit after l1 eviction" `Quick test_memsys_l2_hit_after_l1_eviction;
          Alcotest.test_case "prewarm" `Quick test_memsys_prewarm;
          Alcotest.test_case "stats" `Quick test_memsys_stats;
          Alcotest.test_case "next-line prefetch" `Quick test_memsys_prefetch_next_line;
          QCheck_alcotest.to_alcotest prop_memsys_prewarm_matches_touch;
        ] );
      ( "bpred",
        [
          Alcotest.test_case "learns bias" `Quick test_bpred_learns_bias;
          Alcotest.test_case "learns alternation" `Quick test_bpred_learns_alternation;
          Alcotest.test_case "random is hard" `Quick test_bpred_random_is_hard;
          Alcotest.test_case "stats reset" `Quick test_bpred_stats_reset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "ipc and metrics" `Quick test_stats_ipc_and_metrics;
          Alcotest.test_case "balance entropy" `Quick test_stats_balance_entropy;
          Alcotest.test_case "reset" `Quick test_stats_reset;
        ] );
      ( "engine",
        [
          Alcotest.test_case "commits exactly" `Quick test_engine_commits_exactly;
          Alcotest.test_case "serial chain rate" `Quick test_engine_serial_chain_rate;
          Alcotest.test_case "independent throughput" `Quick test_engine_independent_throughput;
          Alcotest.test_case "one-cluster no copies" `Quick test_engine_one_cluster_no_copies;
          Alcotest.test_case "forced copies" `Quick test_engine_forced_copies;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "load latency" `Quick test_engine_load_latency_counted;
          Alcotest.test_case "mispredict cost" `Quick test_engine_branch_mispredict_costs;
          Alcotest.test_case "reset equals fresh" `Quick
            test_engine_reset_equals_fresh;
          Alcotest.test_case "warmup resets" `Quick test_engine_warmup_resets;
          Alcotest.test_case "rob stall on miss" `Quick test_engine_rob_stall_on_long_miss;
          Alcotest.test_case "rejects bad args" `Quick test_engine_rejects_bad_args;
          Alcotest.test_case "rogue policy fault" `Quick test_engine_rejects_rogue_policy;
          Alcotest.test_case "static-id table" `Quick test_engine_static_id_table;
          Alcotest.test_case "second run needs a reset" `Quick
            test_engine_second_run_needs_reset;
          Alcotest.test_case "regfile pressure" `Quick test_engine_regfile_pressure;
          Alcotest.test_case "store-load forwarding" `Quick test_engine_store_load_forwarding;
          Alcotest.test_case "lsq backpressure" `Quick test_engine_lsq_backpressure;
          Alcotest.test_case "copy queue backpressure" `Quick test_engine_copy_queue_backpressure;
          Alcotest.test_case "trace cache stress" `Quick test_engine_tracecache_stress;
          Alcotest.test_case "energy shape" `Quick test_energy_estimate_shape;
          Alcotest.test_case "energy cluster scaling" `Quick test_energy_costs_scale_with_clusters;
          Alcotest.test_case "reset onto another point = fresh"
            `Quick test_engine_reset_onto_other_point;
          Alcotest.test_case "reset from a prewarmed twin" `Quick
            test_engine_reset_from_twin;
          Alcotest.test_case "copy pool grows" `Quick test_engine_copy_pool_grows;
          Alcotest.test_case "tag pool bounded" `Quick
            test_engine_tag_pool_bounded;
        ] );
      ( "quiescence",
        [
          QCheck_alcotest.to_alcotest prop_gate_random_programs;
          QCheck_alcotest.to_alcotest prop_gate_adversarial;
          Alcotest.test_case "adversarial x every fabric" `Quick
            test_gate_adversarial_every_fabric;
          Alcotest.test_case "unpipelined-unit horizon" `Quick
            test_gate_unpipelined_horizon;
          Alcotest.test_case "memory latency past the wheel" `Quick
            test_gate_memory_past_wheel;
          Alcotest.test_case "deadlock fails as the reference" `Quick
            test_gate_deadlock;
          QCheck_alcotest.to_alcotest prop_jump_random_programs;
          QCheck_alcotest.to_alcotest prop_jump_adversarial;
          Alcotest.test_case "jump fires" `Quick test_jump_fires;
        ] );
    ]
