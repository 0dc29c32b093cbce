(* Quickstart: build a small program by hand, compile it with the
   paper's virtual-cluster partitioner, and run it through the
   clustered out-of-order simulator under the hybrid steering policy.

     dune exec examples/quickstart.exe *)

open Clusteer_isa
module Uarch = Clusteer_uarch
module Trace = Clusteer_trace

let () =
  (* 1. A toy loop: two dependence chains plus a strided load stream,
     iterating 64 times. *)
  let b = Program.Builder.create ~name:"quickstart" ~nregs_per_class:16 () in
  let stream = Program.Builder.stream b in
  let loop_model = Program.Builder.branch_model b in
  let body = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  let u1 =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 1) ~srcs:[| Reg.int 0 |]
      ~stream ()
  in
  let u2 =
    Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 2)
      ~srcs:[| Reg.int 1; Reg.int 2 |] ()
  in
  let u3 =
    Program.Builder.uop b Opcode.Fp_mul ~dst:(Reg.fp 0) ~srcs:[| Reg.fp 0 |] ()
  in
  let u4 =
    Program.Builder.uop b Opcode.Fp_add ~dst:(Reg.fp 1)
      ~srcs:[| Reg.fp 1; Reg.fp 0 |] ()
  in
  let u5 =
    Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 3) ~srcs:[| Reg.int 3 |]
      ()
  in
  let u6 =
    Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 3 |]
      ~branch_ref:loop_model ()
  in
  Program.Builder.define_block b body [ u1; u2; u3; u4; u5; u6 ]
    ~succs:[ exit_; body ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  let program = Program.Builder.finish b ~entry:body in

  (* 2. Dynamic behaviour models for the trace generator. *)
  let branches = [| Trace.Branch_model.Loop 64 |] in
  let streams =
    [| Trace.Mem_model.Strided { base = 0; stride = 8; footprint = 4096 } |]
  in
  let likely blk = if blk = body then Some 1 else None in

  (* 3. Both halves in one call: the software half (paper Fig. 2/3)
     partitions the program into two virtual clusters and marks chain
     leaders; the hardware half (Fig. 4) is the VC->cluster mapping
     table those leaders drive. *)
  let config = Uarch.Config.default_2c in
  let annot, policy =
    Clusteer.Configuration.prepare
      (Clusteer.Configuration.Vc { virtual_clusters = 2 })
      ~program ~likely ~clusters:config.Uarch.Config.clusters ()
  in
  Fmt.pr "Virtual-cluster assignment (uop -> vc, * = chain leader):@.";
  Program.iter_uops program (fun u ->
      Fmt.pr "  %a  -> vc%d%s@." Uop.pp u annot.Annot.vc_of.(u.Uop.id)
        (if annot.Annot.leader.(u.Uop.id) then " *" else ""));

  (* 4. The cycle-level machine of Table 2. Built by hand rather than
     through [Clusteer_harness.Runner] so each layer stays visible. *)
  let engine = Uarch.Engine.create ~config ~annot ~policy ~prewarm:[ (0, 4096) ] () in
  let gen = Trace.Tracegen.create ~program ~branches ~streams ~seed:7 in
  let stats =
    Uarch.Engine.run engine
      ~source:(fun () -> Trace.Tracegen.next gen)
      ~warmup:1000 ~uops:10_000
  in
  Fmt.pr "@.Hybrid (VC) steering on the 2-cluster machine:@.%a@."
    Uarch.Stats.pp stats;
  Fmt.pr "@.IPC %.2f, %d copy micro-ops, %d allocation-stall cycles@."
    (Uarch.Stats.ipc stats) stats.Uarch.Stats.copies_generated
    (Uarch.Stats.allocation_stalls stats)
