(* Tests for the clustered VLIW substrate: machine, reservation tables,
   list scheduling (fixed assignment and unified), whole-program eval. *)

open Clusteer_isa
open Clusteer_ddg
open Clusteer_vliw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alu b ~dst ~srcs =
  Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int dst)
    ~srcs:(Array.of_list (List.map Reg.int srcs))
    ()

let chain_uops n =
  let b = Program.Builder.create ~name:"chain" ~nregs_per_class:8 () in
  Array.init n (fun i -> alu b ~dst:0 ~srcs:(if i = 0 then [] else [ 0 ]))

let two_chains n =
  let b = Program.Builder.create ~name:"two" ~nregs_per_class:8 () in
  Array.concat
    [
      Array.init n (fun i -> alu b ~dst:0 ~srcs:(if i = 0 then [] else [ 0 ]));
      Array.init n (fun i -> alu b ~dst:1 ~srcs:(if i = 0 then [] else [ 1 ]));
    ]

let machine2 = Machine.default ~clusters:2

(* ---- machine ----------------------------------------------------------- *)

let test_machine_default () =
  Machine.validate machine2;
  check_int "clusters" 2 machine2.Machine.clusters;
  check_int "int slots" 2 (Machine.slots machine2 Machine.Slot_int);
  check_int "move slots" 1 (Machine.slots machine2 Machine.Slot_move)

let test_machine_slot_classes () =
  check_bool "load is mem" true
    (Machine.slot_class_of Opcode.Load = Machine.Slot_mem);
  check_bool "fmul is fp" true
    (Machine.slot_class_of Opcode.Fp_mul = Machine.Slot_fp);
  check_bool "branch is int" true
    (Machine.slot_class_of Opcode.Branch = Machine.Slot_int);
  check_bool "copy is move" true
    (Machine.slot_class_of Opcode.Copy = Machine.Slot_move)

let test_machine_validation () =
  Alcotest.check_raises "zero clusters"
    (Invalid_argument "Vliw.Machine: clusters must be positive") (fun () ->
      Machine.validate { machine2 with Machine.clusters = 0 })

(* ---- reservation -------------------------------------------------------- *)

let test_reservation_fills_slots () =
  let r = Schedule.create_reservation machine2 in
  (* two INT slots in cycle 0, the third op pushes to cycle 1 *)
  check_int "slot a" 0
    (Schedule.earliest_free r ~cluster:0 ~cls:Machine.Slot_int ~from:0);
  Schedule.reserve r ~cluster:0 ~cls:Machine.Slot_int ~cycle:0;
  Schedule.reserve r ~cluster:0 ~cls:Machine.Slot_int ~cycle:0;
  check_int "cycle 0 full" 1
    (Schedule.earliest_free r ~cluster:0 ~cls:Machine.Slot_int ~from:0);
  (* other cluster unaffected *)
  check_int "cluster 1 free" 0
    (Schedule.earliest_free r ~cluster:1 ~cls:Machine.Slot_int ~from:0)

let test_reservation_overbook_rejected () =
  let r = Schedule.create_reservation machine2 in
  Schedule.reserve r ~cluster:0 ~cls:Machine.Slot_move ~cycle:3;
  Alcotest.check_raises "overbook"
    (Invalid_argument "Vliw.Schedule.reserve: slot full") (fun () ->
      Schedule.reserve r ~cluster:0 ~cls:Machine.Slot_move ~cycle:3)

(* ---- list scheduling ------------------------------------------------------ *)

let test_serial_chain_one_cluster () =
  let g = Ddg.build (chain_uops 6) in
  let sched =
    List_sched.with_assignment machine2 g ~assignment:(Array.make 6 0)
  in
  Schedule.validate sched g machine2;
  check_int "length = chain latency" 6 sched.Schedule.length;
  check_int "no moves" 0 sched.Schedule.moves

let test_serial_chain_alternating_pays_moves () =
  let g = Ddg.build (chain_uops 6) in
  let assignment = Array.init 6 (fun i -> i mod 2) in
  let sched = List_sched.with_assignment machine2 g ~assignment in
  Schedule.validate sched g machine2;
  check_bool "moves inserted" true (sched.Schedule.moves >= 5);
  check_bool "slower than local" true (sched.Schedule.length > 6)

let test_unified_parallelizes_two_chains () =
  let g = Ddg.build (two_chains 6) in
  let sched = List_sched.unified machine2 g in
  Schedule.validate sched g machine2;
  (* both chains fit in one cluster's 2 INT slots, but unified should
     still finish in ~chain length *)
  check_bool "near-optimal makespan" true (sched.Schedule.length <= 7);
  check_int "no moves needed" 0 sched.Schedule.moves

let test_unified_matches_ideal_on_wide_block () =
  (* 8 independent ops, 2 clusters x 2 INT slots = 4/cycle -> 2 cycles
     (+1 for the 1-cycle latency of the last issue). *)
  let b = Program.Builder.create ~name:"wide" ~nregs_per_class:16 () in
  let uops = Array.init 8 (fun i -> alu b ~dst:(i mod 8) ~srcs:[]) in
  let g = Ddg.build uops in
  let sched = List_sched.unified machine2 g in
  Schedule.validate sched g machine2;
  check_int "two issue cycles" 2 sched.Schedule.length

let test_move_reused_by_second_consumer () =
  (* producer on cluster 0; two consumers forced to cluster 1: one move
     suffices. *)
  let b = Program.Builder.create ~name:"reuse" ~nregs_per_class:8 () in
  let p = alu b ~dst:0 ~srcs:[] in
  let c1 = alu b ~dst:1 ~srcs:[ 0 ] in
  let c2 = alu b ~dst:2 ~srcs:[ 0 ] in
  let g = Ddg.build [| p; c1; c2 |] in
  let sched = List_sched.with_assignment machine2 g ~assignment:[| 0; 1; 1 |] in
  Schedule.validate sched g machine2;
  check_int "single move" 1 sched.Schedule.moves

let test_with_assignment_validates_input () =
  let g = Ddg.build (chain_uops 3) in
  Alcotest.check_raises "arity"
    (Invalid_argument "Vliw.List_sched.with_assignment: arity mismatch")
    (fun () ->
      ignore (List_sched.with_assignment machine2 g ~assignment:[| 0 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Vliw.List_sched.with_assignment: cluster out of range")
    (fun () ->
      ignore (List_sched.with_assignment machine2 g ~assignment:[| 0; 5; 0 |]))

let test_schedule_ipc () =
  let g = Ddg.build (two_chains 6) in
  let sched = List_sched.unified machine2 g in
  check_bool "ipc positive" true (Schedule.ipc sched > 1.0)

(* ---- modulo scheduling --------------------------------------------------------- *)

(* The dot-product recurrence: acc <- acc + x*y every iteration. *)
let reduction_body () =
  let b = Program.Builder.create ~name:"red" ~nregs_per_class:8 () in
  let mul =
    Program.Builder.uop b Opcode.Fp_mul ~dst:(Reg.fp 1) ~srcs:[| Reg.fp 2 |] ()
  in
  let acc =
    Program.Builder.uop b Opcode.Fp_add ~dst:(Reg.fp 0)
      ~srcs:[| Reg.fp 0; Reg.fp 1 |] ()
  in
  [| mul; acc |]

let test_loop_ddg_carried_edges () =
  let g = Modulo.loop_ddg_of_body (reduction_body ()) in
  (* intra: mul -> acc (distance 0); carried: acc -> acc reads its own
     previous value (distance 1); mul reads fp2, never defined: no
     edge. *)
  let count p = List.length (List.filter p g.Modulo.edges) in
  check_int "one intra edge" 1 (count (fun e -> e.Modulo.distance = 0));
  check_int "one carried edge" 1 (count (fun e -> e.Modulo.distance = 1));
  let carried = List.find (fun e -> e.Modulo.distance = 1) g.Modulo.edges in
  check_int "acc feeds itself" 1 carried.Modulo.src;
  check_int "acc feeds itself" 1 carried.Modulo.dst

let test_rec_mii_reduction () =
  let g = Modulo.loop_ddg_of_body (reduction_body ()) in
  (* the recurrence is acc->acc with fadd latency 3 and distance 1 *)
  check_int "rec mii = fadd latency" 3 (Modulo.rec_mii g)

let test_rec_mii_acyclic_is_one () =
  let b = Program.Builder.create ~name:"ac" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:1 ~srcs:[ 0 ] in
  let g = Modulo.loop_ddg_of_body [| u0; u1 |] in
  (* u1 also carries u0->... wait: u1 reads r0 defined earlier: no
     carried edge; u0 defines r0 with no cross-iteration reader before
     its definition. *)
  check_int "acyclic" 1 (Modulo.rec_mii g)

let test_res_mii_counts_slots () =
  (* four int ops on one cluster with 2 int slots -> II >= 2 *)
  let b = Program.Builder.create ~name:"r" ~nregs_per_class:8 () in
  let uops = Array.init 4 (fun i -> alu b ~dst:i ~srcs:[]) in
  let g = Modulo.loop_ddg_of_body uops in
  check_int "res mii" 2 (Modulo.res_mii machine2 g ~assignment:(Array.make 4 0));
  (* spread over two clusters -> II >= 1 *)
  check_int "res mii spread" 1
    (Modulo.res_mii machine2 g ~assignment:[| 0; 0; 1; 1 |])

let test_modulo_schedule_achieves_mii () =
  let g = Modulo.loop_ddg_of_body (reduction_body ()) in
  let assignment = [| 0; 0 |] in
  let r = Modulo.schedule machine2 g ~assignment () in
  Modulo.validate machine2 g ~assignment r;
  check_int "ii = mii" r.Modulo.mii r.Modulo.ii;
  check_int "mii is recurrence bound" 3 r.Modulo.mii;
  check_int "no moves" 0 r.Modulo.moves

let test_modulo_cross_cluster_costs () =
  let g = Modulo.loop_ddg_of_body (reduction_body ()) in
  let assignment = [| 0; 1 |] in
  let r = Modulo.schedule machine2 g ~assignment () in
  Modulo.validate machine2 g ~assignment r;
  check_int "one move" 1 r.Modulo.moves;
  check_bool "ii not better than local" true (r.Modulo.ii >= 3)

let test_modulo_kernel_daxpy () =
  (* daxpy body from the kernels library: fully pipelinable; II is
     resource-bound, not recurrence-bound. *)
  let k = Clusteer_workloads.Kernels.daxpy () in
  let body = k.Clusteer_workloads.Synth.program.Program.blocks.(0).Block.uops in
  let g = Modulo.loop_ddg_of_body body in
  let n = Array.length body in
  let r = Modulo.schedule machine2 g ~assignment:(Array.make n 0) () in
  Modulo.validate machine2 g ~assignment:(Array.make n 0) r;
  (* The y-stream store feeds next iteration's y load: the recurrence
     ld_y -> fadd -> store -> (carried) ld_y bounds the II at ~8
     cycles, above the 3-op memory resource bound. *)
  check_bool "recurrence bound" true (r.Modulo.ii >= 8);
  (* naive spreading adds communication inside that recurrence: legal,
     pays moves, and cannot beat the local schedule *)
  let spread = Array.init n (fun i -> i mod 2) in
  let r2 = Modulo.schedule machine2 g ~assignment:spread () in
  Modulo.validate machine2 g ~assignment:spread r2;
  check_bool "moves paid" true (r2.Modulo.moves > 0);
  check_bool "no free lunch" true (r2.Modulo.ii >= r.Modulo.ii)

let test_four_cluster_machine_schedules () =
  let machine4 = Machine.default ~clusters:4 in
  let g = Ddg.build (two_chains 8) in
  let sched = List_sched.unified machine4 g in
  Schedule.validate sched g machine4;
  check_bool "valid and fast" true (sched.Schedule.length <= 10)

(* ---- whole-program eval ----------------------------------------------------- *)

let no_profile _ = None
let region_uops = Clusteer.Configuration.default_params.region_uops

let small_program () =
  let b = Program.Builder.create ~name:"p" ~nregs_per_class:16 () in
  let blk0 = Program.Builder.reserve_block b in
  let blk1 = Program.Builder.reserve_block b in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:0 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:1 ~srcs:[] in
  Program.Builder.define_block b blk0 [ u0; u1; u2 ] ~succs:[ blk1 ];
  let u3 = alu b ~dst:1 ~srcs:[ 1 ] in
  let u4 = alu b ~dst:2 ~srcs:[ 0; 1 ] in
  Program.Builder.define_block b blk1 [ u3; u4 ] ~succs:[];
  Program.Builder.finish b ~entry:blk0

let test_eval_unified_runs () =
  let program = small_program () in
  let s =
    Eval.run machine2 ~program ~likely:no_profile ~region_uops Eval.Unified
  in
  check_int "covers all ops" program.Program.uop_count s.Eval.ops;
  check_bool "positive ipc" true (s.Eval.static_ipc > 0.0)

let test_eval_fixed_matches_assignment () =
  let program = small_program () in
  let s =
    Eval.run machine2 ~program ~likely:no_profile ~region_uops
      (Eval.Fixed (fun g -> Array.make (Ddg.node_count g) 0))
  in
  check_int "no moves when monocluster" 0 s.Eval.moves

let test_eval_rhop_competitive_with_unified () =
  (* The paper's §3.3 point: on the static machine, graph-partitioning
     assignments are competitive with the native assign-and-schedule. *)
  let workload = Clusteer_workloads.Synth.build (Clusteer_workloads.Spec2000.find "galgel") in
  let program = workload.Clusteer_workloads.Synth.program in
  let likely = workload.Clusteer_workloads.Synth.likely in
  let uas = Eval.run machine2 ~program ~likely ~region_uops Eval.Unified in
  let rhop =
    Eval.run machine2 ~program ~likely ~region_uops
      (Eval.Fixed (fun g -> Clusteer_compiler.Rhop.assign_region g ~clusters:2))
  in
  check_bool "rhop within 30% of UAS on VLIW" true
    (float_of_int rhop.Eval.cycles <= 1.3 *. float_of_int uas.Eval.cycles)

(* ---- properties --------------------------------------------------------------- *)

let arb_uops =
  QCheck.make
    QCheck.Gen.(
      sized (fun size st ->
          let n = max 1 (min size 30) in
          let b = Program.Builder.create ~name:"q" ~nregs_per_class:8 () in
          Array.init n (fun _ ->
              let dst = int_bound 5 st in
              let nsrcs = int_bound 2 st in
              let srcs = Array.init nsrcs (fun _ -> Reg.int (int_bound 5 st)) in
              Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int dst) ~srcs ())))

let prop_unified_schedules_validate =
  QCheck.Test.make ~name:"unified schedules always validate" ~count:200
    arb_uops (fun uops ->
      let g = Ddg.build uops in
      let sched = List_sched.unified machine2 g in
      Schedule.validate sched g machine2;
      true)

let prop_length_bounded_by_critical_path =
  QCheck.Test.make ~name:"makespan >= critical path" ~count:200 arb_uops
    (fun uops ->
      let g = Ddg.build uops in
      let crit = Critical.analyze g in
      let sched = List_sched.unified machine2 g in
      sched.Schedule.length >= crit.Critical.length)

let prop_modulo_validates =
  QCheck.Test.make ~name:"modulo schedules always validate" ~count:100
    arb_uops (fun uops ->
      let g = Modulo.loop_ddg_of_body uops in
      let n = Array.length uops in
      let assignment = Array.init n (fun i -> i mod 2) in
      let r = Modulo.schedule machine2 g ~assignment () in
      Modulo.validate machine2 g ~assignment r;
      r.Modulo.ii >= r.Modulo.mii)

let prop_fixed_zero_assignment_no_moves =
  QCheck.Test.make ~name:"single-cluster assignment never moves" ~count:200
    arb_uops (fun uops ->
      let g = Ddg.build uops in
      let sched =
        List_sched.with_assignment machine2 g
          ~assignment:(Array.make (Ddg.node_count g) 1)
      in
      Schedule.validate sched g machine2;
      sched.Schedule.moves = 0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_vliw"
    [
      ( "machine",
        [
          Alcotest.test_case "default" `Quick test_machine_default;
          Alcotest.test_case "slot classes" `Quick test_machine_slot_classes;
          Alcotest.test_case "validation" `Quick test_machine_validation;
        ] );
      ( "reservation",
        [
          Alcotest.test_case "fills slots" `Quick test_reservation_fills_slots;
          Alcotest.test_case "overbook rejected" `Quick test_reservation_overbook_rejected;
        ] );
      ( "list-sched",
        [
          Alcotest.test_case "serial chain" `Quick test_serial_chain_one_cluster;
          Alcotest.test_case "alternating pays moves" `Quick test_serial_chain_alternating_pays_moves;
          Alcotest.test_case "unified parallelizes" `Quick test_unified_parallelizes_two_chains;
          Alcotest.test_case "wide block ideal" `Quick test_unified_matches_ideal_on_wide_block;
          Alcotest.test_case "move reuse" `Quick test_move_reused_by_second_consumer;
          Alcotest.test_case "input validation" `Quick test_with_assignment_validates_input;
          Alcotest.test_case "ipc" `Quick test_schedule_ipc;
          qc prop_unified_schedules_validate;
          qc prop_length_bounded_by_critical_path;
          qc prop_fixed_zero_assignment_no_moves;
        ] );
      ( "modulo",
        [
          Alcotest.test_case "carried edges" `Quick test_loop_ddg_carried_edges;
          Alcotest.test_case "rec mii reduction" `Quick test_rec_mii_reduction;
          Alcotest.test_case "rec mii acyclic" `Quick test_rec_mii_acyclic_is_one;
          Alcotest.test_case "res mii" `Quick test_res_mii_counts_slots;
          Alcotest.test_case "achieves mii" `Quick test_modulo_schedule_achieves_mii;
          Alcotest.test_case "cross-cluster cost" `Quick test_modulo_cross_cluster_costs;
          Alcotest.test_case "daxpy kernel" `Quick test_modulo_kernel_daxpy;
          qc prop_modulo_validates;
        ] );
      ( "four-cluster",
        [ Alcotest.test_case "schedules" `Quick test_four_cluster_machine_schedules ] );
      ( "eval",
        [
          Alcotest.test_case "unified runs" `Quick test_eval_unified_runs;
          Alcotest.test_case "fixed monocluster" `Quick test_eval_fixed_matches_assignment;
          Alcotest.test_case "rhop competitive" `Slow test_eval_rhop_competitive_with_unified;
        ] );
    ]
