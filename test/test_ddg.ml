(* Tests for clusteer_ddg: region formation, dependence-graph
   construction, criticality analysis. *)

open Clusteer_isa
open Clusteer_ddg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alu b ~dst ~srcs =
  Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int dst)
    ~srcs:(Array.of_list (List.map Reg.int srcs))
    ()

(* ---- DDG construction ------------------------------------------------- *)

(* A node's successor (destination) and predecessor (source) rows. *)
let succs_of g i =
  let acc = ref [] in
  Ddg.iter_succs g i (fun d -> acc := d :: !acc);
  List.rev !acc

let preds_of g i =
  let acc = ref [] in
  Ddg.iter_preds g i (fun s -> acc := s :: !acc);
  List.rev !acc

(* r0 = const; r1 = r0; r2 = r0; r3 = r1 + r2  (diamond) *)
let diamond_uops () =
  let b = Program.Builder.create ~name:"d" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:1 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:2 ~srcs:[ 0 ] in
  let u3 = alu b ~dst:3 ~srcs:[ 1; 2 ] in
  [| u0; u1; u2; u3 |]

let test_ddg_diamond_edges () =
  let g = Ddg.build (diamond_uops ()) in
  let succs i = succs_of g i in
  Alcotest.(check (list int)) "u0 feeds u1 u2" [ 1; 2 ] (succs 0);
  Alcotest.(check (list int)) "u1 feeds u3" [ 3 ] (succs 1);
  Alcotest.(check (list int)) "u2 feeds u3" [ 3 ] (succs 2);
  Alcotest.(check (list int)) "u3 leaf" [] (succs 3)

let test_ddg_redefinition_kills () =
  (* r0 = c; r0 = c (redefine); r1 = r0 — only the second def feeds r1. *)
  let b = Program.Builder.create ~name:"waw" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:0 ~srcs:[] in
  let u2 = alu b ~dst:1 ~srcs:[ 0 ] in
  let g = Ddg.build [| u0; u1; u2 |] in
  check_int "u0 has no consumers" 0 (List.length (succs_of g 0));
  check_int "u1 feeds u2" 1 (List.length (succs_of g 1))

let test_ddg_memory_dependences () =
  let b = Program.Builder.create ~name:"mem" ~nregs_per_class:8 () in
  let s0 = Program.Builder.stream b in
  let s1 = Program.Builder.stream b in
  let st0 =
    Program.Builder.uop b Opcode.Store ~srcs:[| Reg.int 0; Reg.int 1 |]
      ~stream:s0 ()
  in
  let ld_same =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 2) ~srcs:[| Reg.int 1 |]
      ~stream:s0 ()
  in
  let ld_other =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 3) ~srcs:[| Reg.int 1 |]
      ~stream:s1 ()
  in
  let st_same =
    Program.Builder.uop b Opcode.Store ~srcs:[| Reg.int 0; Reg.int 1 |]
      ~stream:s0 ()
  in
  let g = Ddg.build [| st0; ld_same; ld_other; st_same |] in
  let has_edge a b = List.mem b (succs_of g a) in
  check_bool "store -> load same stream" true (has_edge 0 1);
  check_bool "no edge to other stream" false (has_edge 0 2);
  check_bool "store -> store same stream" true (has_edge 0 3)

let test_ddg_acyclic_and_forward () =
  let g = Ddg.build (diamond_uops ()) in
  check_bool "acyclic" true (Ddg.is_acyclic g);
  Ddg.iter_edges g (fun src dst -> check_bool "forward" true (src < dst))

let test_ddg_roots_leaves () =
  let g = Ddg.build (diamond_uops ()) in
  Alcotest.(check (list int)) "roots" [ 0 ] (Ddg.roots g);
  Alcotest.(check (list int)) "leaves" [ 3 ] (Ddg.leaves g)

let test_ddg_static_latency_load () =
  let b = Program.Builder.create ~name:"lat" ~nregs_per_class:8 () in
  let s = Program.Builder.stream b in
  let ld =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0) ~srcs:[| Reg.int 1 |]
      ~stream:s ()
  in
  check_int "load = agu + l1 hit" 4 (Ddg.static_latency ld);
  check_int "alu = 1" 1 (Ddg.static_latency (alu b ~dst:0 ~srcs:[]))

(* ---- Criticality ------------------------------------------------------- *)

let test_critical_diamond () =
  let g = Ddg.build (diamond_uops ()) in
  let c = Critical.analyze g in
  (* All latencies 1: depth 0,1,1,2; height 3,2,2,1. *)
  Alcotest.(check (array int)) "depth" [| 0; 1; 1; 2 |] c.Critical.depth;
  Alcotest.(check (array int)) "height" [| 3; 2; 2; 1 |] c.Critical.height;
  check_int "critical path length" 3 c.Critical.length;
  Alcotest.(check (array int)) "slack all zero" [| 0; 0; 0; 0 |] c.Critical.slack

let test_critical_slack_off_path () =
  (* Chain of 3 plus one independent op: the lone op has slack. *)
  let b = Program.Builder.create ~name:"s" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:1 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:2 ~srcs:[ 1 ] in
  let u3 = alu b ~dst:3 ~srcs:[] in
  let g = Ddg.build [| u0; u1; u2; u3 |] in
  let c = Critical.analyze g in
  check_int "chain length" 3 c.Critical.length;
  check_int "chain head slack" 0 c.Critical.slack.(0);
  check_int "lone op slack" 2 c.Critical.slack.(3)

let test_critical_path_extraction () =
  let b = Program.Builder.create ~name:"p" ~nregs_per_class:8 () in
  let u0 = alu b ~dst:0 ~srcs:[] in
  let u1 = alu b ~dst:1 ~srcs:[ 0 ] in
  let u2 = alu b ~dst:2 ~srcs:[ 1 ] in
  let u3 = alu b ~dst:3 ~srcs:[] in
  let g = Ddg.build [| u0; u1; u2; u3 |] in
  let c = Critical.analyze g in
  Alcotest.(check (list int)) "critical path" [ 0; 1; 2 ] (Critical.critical_path g c)

let test_critical_latency_weighting () =
  (* imul (3 cycles) chain vs alu (1 cycle) chain: the mul chain is
     critical even though both have two nodes. *)
  let b = Program.Builder.create ~name:"w" ~nregs_per_class:8 () in
  let m0 = Program.Builder.uop b Opcode.Int_mul ~dst:(Reg.int 0) () in
  let m1 =
    Program.Builder.uop b Opcode.Int_mul ~dst:(Reg.int 1) ~srcs:[| Reg.int 0 |] ()
  in
  let a0 = alu b ~dst:2 ~srcs:[] in
  let a1 = alu b ~dst:3 ~srcs:[ 2 ] in
  let g = Ddg.build [| m0; m1; a0; a1 |] in
  let c = Critical.analyze g in
  check_int "length = 2 muls" 6 c.Critical.length;
  check_int "mul chain critical" 0 c.Critical.slack.(0);
  check_bool "alu chain slack" true (c.Critical.slack.(2) > 0)

(* ---- Regions ----------------------------------------------------------- *)

let program_with_loop () =
  let b = Program.Builder.create ~name:"r" ~nregs_per_class:8 () in
  let m_loop = Program.Builder.branch_model b in
  let m_cond = Program.Builder.branch_model b in
  let head = Program.Builder.reserve_block b in
  let cond = Program.Builder.reserve_block b in
  let left = Program.Builder.reserve_block b in
  let right = Program.Builder.reserve_block b in
  let latch = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  Program.Builder.define_block b head [ alu b ~dst:0 ~srcs:[] ] ~succs:[ cond ];
  Program.Builder.define_block b cond
    [
      alu b ~dst:1 ~srcs:[ 0 ];
      Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 1 |] ~branch_ref:m_cond ();
    ]
    ~succs:[ left; right ];
  Program.Builder.define_block b left [ alu b ~dst:2 ~srcs:[ 1 ] ] ~succs:[ latch ];
  Program.Builder.define_block b right [ alu b ~dst:2 ~srcs:[ 0 ] ] ~succs:[ latch ];
  Program.Builder.define_block b latch
    [
      alu b ~dst:3 ~srcs:[ 2 ];
      Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 3 |] ~branch_ref:m_loop ();
    ]
    ~succs:[ exit_; head ];
  Program.Builder.define_block b exit_ [ alu b ~dst:4 ~srcs:[ 3 ] ] ~succs:[];
  Program.Builder.finish b ~entry:head

let likely_left blk = if blk = 1 then Some 0 else if blk = 4 then Some 1 else None

let test_regions_cover_all_blocks () =
  let program = program_with_loop () in
  let regions = Region.build ~program ~likely:likely_left ~max_uops:100 in
  let covered = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Array.iter
        (fun blk ->
          Alcotest.(check bool) "block covered once" false (Hashtbl.mem covered blk);
          Hashtbl.replace covered blk ())
        r.Region.blocks)
    regions;
  check_int "all blocks" (Array.length program.Program.blocks)
    (Hashtbl.length covered)

let test_regions_follow_likely_path () =
  let program = program_with_loop () in
  let regions = Region.build ~program ~likely:likely_left ~max_uops:100 in
  let first = List.hd regions in
  (* Entry region follows head -> cond -> left (likely side) and stops
     at the latch back-edge (latch's likely successor is head, already
     placed). *)
  Alcotest.(check (array int)) "hot trace" [| 0; 1; 2; 4 |] first.Region.blocks

let test_regions_respect_max_uops () =
  let program = program_with_loop () in
  let regions = Region.build ~program ~likely:likely_left ~max_uops:2 in
  (* Growth stops once the budget is reached; the final block may push
     a region past the bound, so: before its last block every region
     was still under budget. *)
  List.iter
    (fun r ->
      let nblocks = Array.length r.Region.blocks in
      if nblocks > 1 then begin
        let last = r.Region.blocks.(nblocks - 1) in
        let last_size =
          Array.length program.Program.blocks.(last).Block.uops
        in
        check_bool "under budget before last block" true
          (Array.length r.Region.uops - last_size < 2)
      end)
    regions

let test_region_find_and_position () =
  let program = program_with_loop () in
  let regions = Region.build ~program ~likely:likely_left ~max_uops:100 in
  let r = Region.find regions ~uop_id:2 in
  check_bool "contains uop 2" true
    (Array.exists (fun (u : Uop.t) -> u.Uop.id = 2) r.Region.uops);
  let pos = Region.position r ~uop_id:2 in
  check_int "position consistent" 2 r.Region.uops.(pos).Uop.id

(* ---- Property tests ----------------------------------------------------- *)

(* Random straight-line micro-op sequences. *)
let gen_uops =
  QCheck.Gen.(
    let gen_op rng_n i =
      let dst = rng_n 6 in
      let nsrcs = rng_n 3 in
      let srcs = Array.init nsrcs (fun _ -> Reg.int (rng_n 6)) in
      Uop.make ~id:i ~opcode:Opcode.Int_alu ~dst:(Reg.int dst) ~srcs ()
    in
    sized (fun n st ->
        let n = max 1 (min n 40) in
        Array.init n (fun i -> gen_op (fun b -> int_bound (b - 1) st) i)))

let arb_uops = QCheck.make gen_uops

let prop_ddg_forward_edges =
  QCheck.Test.make ~name:"ddg edges always point forward" ~count:200 arb_uops
    (fun uops ->
      let g = Ddg.build uops in
      Ddg.is_acyclic g)

let prop_ddg_pred_succ_symmetric =
  QCheck.Test.make ~name:"ddg preds mirror succs" ~count:200 arb_uops
    (fun uops ->
      let g = Ddg.build uops in
      let ok = ref true in
      Ddg.iter_edges g (fun src dst ->
          if not (List.mem src (preds_of g dst)) then ok := false);
      !ok)

(* ---- CSR order = the list-based builder ------------------------------------ *)

(* The list-of-records builder the CSR replaced, kept verbatim as the
   reference for row order and dedupe. *)
module Reference = struct
  type edge = { src : int; dst : int; latency : int }

  let build uops =
    let n = Array.length uops in
    let succs = Array.make n [] in
    let preds = Array.make n [] in
    let add_edge src dst =
      if src <> dst then begin
        let latency = Ddg.static_latency uops.(src) in
        let e = { src; dst; latency } in
        (* Avoid duplicate edges between the same pair. *)
        if not (List.exists (fun e' -> e'.dst = dst) succs.(src)) then begin
          succs.(src) <- e :: succs.(src);
          preds.(dst) <- e :: preds.(dst)
        end
      end
    in
    (* Register true dependences: last writer of each register feeds
       subsequent readers until the next write. *)
    let last_writer : (Reg.t * int) list ref = ref [] in
    let writer_of r =
      Option.map snd (List.find_opt (fun (reg, _) -> Reg.equal reg r) !last_writer)
    in
    let set_writer r i =
      last_writer :=
        (r, i) :: List.filter (fun (reg, _) -> not (Reg.equal reg r)) !last_writer
    in
    (* Memory dependences: per stream, remember the last store and all
       loads since it. *)
    let last_store = Hashtbl.create 7 in
    for i = 0 to n - 1 do
      let u = uops.(i) in
      Array.iter
        (fun src -> match writer_of src with Some w -> add_edge w i | None -> ())
        u.Uop.srcs;
      if Uop.is_mem u then begin
        let stream = u.Uop.stream in
        (match u.Uop.opcode with
        | Opcode.Load -> (
            match Hashtbl.find_opt last_store stream with
            | Some s -> add_edge s i
            | None -> ())
        | Opcode.Store ->
            (match Hashtbl.find_opt last_store stream with
            | Some s -> add_edge s i
            | None -> ());
            Hashtbl.replace last_store stream i
        | _ -> ())
      end;
      Option.iter (fun d -> set_writer d i) u.Uop.dst
    done;
    Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
    Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
    (succs, preds)
end

(* Rows, latencies and edge count equal the reference's, in order. *)
let same_as_reference uops =
  let g = Ddg.build uops in
  let succs, preds = Reference.build uops in
  let n = Array.length uops in
  let edges = Array.fold_left (fun acc l -> acc + List.length l) 0 succs in
  Ddg.edge_count g = edges
  && List.for_all
       (fun i ->
         succs_of g i = List.map (fun e -> e.Reference.dst) succs.(i)
         && preds_of g i = List.map (fun e -> e.Reference.src) preds.(i)
         && List.for_all
              (fun e -> g.Ddg.latency.(e.Reference.src) = e.Reference.latency)
              succs.(i))
       (List.init n Fun.id)

(* Random sequences over both register classes and three memory
   streams, with repeated source operands. *)
let gen_mixed_uops =
  QCheck.Gen.(
    sized (fun size st ->
        let n = max 1 (min size 60) in
        Array.init n (fun id ->
            let reg () =
              if int_bound 3 st = 0 then Reg.fp (int_bound 3 st)
              else Reg.int (int_bound 5 st)
            in
            let srcs () =
              match int_bound 3 st with
              | 0 -> [||]
              | 1 -> [| reg () |]
              | 2 -> let r = reg () in [| r; r |]
              | _ -> [| reg (); reg () |]
            in
            match int_bound 5 st with
            | 0 ->
                Uop.make ~id ~opcode:Opcode.Load ~dst:(Reg.int (int_bound 5 st))
                  ~srcs:(srcs ()) ~stream:(int_bound 2 st) ()
            | 1 ->
                Uop.make ~id ~opcode:Opcode.Store ~srcs:(srcs ())
                  ~stream:(int_bound 2 st) ()
            | 2 ->
                Uop.make ~id ~opcode:Opcode.Fp_mul ~dst:(Reg.fp (int_bound 3 st))
                  ~srcs:(srcs ()) ()
            | _ ->
                Uop.make ~id ~opcode:Opcode.Int_alu
                  ~dst:(Reg.int (int_bound 5 st)) ~srcs:(srcs ()) ())))

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"csr rows = list reference (order, dedupe)" ~count:500
    (QCheck.make gen_mixed_uops) same_as_reference

let test_csr_reference_cases () =
  let b = Program.Builder.create ~name:"ref" ~nregs_per_class:8 () in
  let s0 = Program.Builder.stream b in
  let w = alu b ~dst:0 ~srcs:[] in
  (* One writer read twice: a single edge. *)
  let twice = alu b ~dst:1 ~srcs:[ 0; 0 ] in
  let st =
    Program.Builder.uop b Opcode.Store ~srcs:[| Reg.int 1; Reg.int 0 |]
      ~stream:s0 ()
  in
  (* A load of the stored stream that also reads the store's operand
     writer: register edge first, then the memory edge. *)
  let ld =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 2) ~srcs:[| Reg.int 1 |]
      ~stream:s0 ()
  in
  let uops = [| w; twice; st; ld |] in
  check_bool "reference" true (same_as_reference uops);
  let g = Ddg.build uops in
  Alcotest.(check (list int)) "read twice, linked once" [ 0 ] (preds_of g 1);
  Alcotest.(check (list int)) "load: register, then memory" [ 1; 2 ] (preds_of g 3);
  Alcotest.(check (list int)) "store -> load" [ 3 ] (succs_of g 2)

let prop_criticality_bounds =
  QCheck.Test.make ~name:"criticality bounded by path length" ~count:200
    arb_uops (fun uops ->
      let g = Ddg.build uops in
      let c = Critical.analyze g in
      Array.for_all
        (fun crit -> crit >= 0 && crit <= c.Critical.length)
        c.Critical.criticality
      && Array.exists (fun s -> s = 0) c.Critical.slack)

let prop_critical_path_is_zero_slack =
  QCheck.Test.make ~name:"extracted critical path has zero slack" ~count:200
    arb_uops (fun uops ->
      let g = Ddg.build uops in
      let c = Critical.analyze g in
      let path = Critical.critical_path g c in
      path <> [] && List.for_all (fun n -> c.Critical.slack.(n) = 0) path)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_ddg"
    [
      ( "ddg",
        [
          Alcotest.test_case "diamond edges" `Quick test_ddg_diamond_edges;
          Alcotest.test_case "redefinition kills" `Quick test_ddg_redefinition_kills;
          Alcotest.test_case "memory dependences" `Quick test_ddg_memory_dependences;
          Alcotest.test_case "acyclic forward" `Quick test_ddg_acyclic_and_forward;
          Alcotest.test_case "roots and leaves" `Quick test_ddg_roots_leaves;
          Alcotest.test_case "static latency" `Quick test_ddg_static_latency_load;
          qc prop_ddg_forward_edges;
          qc prop_ddg_pred_succ_symmetric;
          Alcotest.test_case "csr = reference cases" `Quick test_csr_reference_cases;
          qc prop_csr_matches_reference;
        ] );
      ( "critical",
        [
          Alcotest.test_case "diamond" `Quick test_critical_diamond;
          Alcotest.test_case "off-path slack" `Quick test_critical_slack_off_path;
          Alcotest.test_case "path extraction" `Quick test_critical_path_extraction;
          Alcotest.test_case "latency weighting" `Quick test_critical_latency_weighting;
          qc prop_criticality_bounds;
          qc prop_critical_path_is_zero_slack;
        ] );
      ( "region",
        [
          Alcotest.test_case "covers all blocks" `Quick test_regions_cover_all_blocks;
          Alcotest.test_case "follows likely path" `Quick test_regions_follow_likely_path;
          Alcotest.test_case "respects max uops" `Quick test_regions_respect_max_uops;
          Alcotest.test_case "find and position" `Quick test_region_find_and_position;
        ] );
    ]
