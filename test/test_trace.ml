(* Tests for clusteer_trace: branch models, memory models, trace
   generation determinism and CFG-walk correctness. *)

open Clusteer_isa
open Clusteer_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Branch models --------------------------------------------------- *)

let test_loop_model_pattern () =
  let st = Branch_model.make_state [| Branch_model.Loop 3 |] ~seed:1 in
  (* Loop 3: taken, taken, not-taken, repeating. *)
  let outcomes = List.init 9 (fun _ -> Branch_model.outcome st 0) in
  Alcotest.(check (list bool)) "loop pattern"
    [ true; true; false; true; true; false; true; true; false ]
    outcomes

let test_loop_trip_one_never_taken () =
  let st = Branch_model.make_state [| Branch_model.Loop 1 |] ~seed:1 in
  for _ = 1 to 5 do
    check_bool "trip 1 exits immediately" false (Branch_model.outcome st 0)
  done

let test_pattern_model_repeats () =
  let st =
    Branch_model.make_state [| Branch_model.Pattern [| true; false |] |] ~seed:1
  in
  Alcotest.(check (list bool)) "pattern"
    [ true; false; true; false ]
    (List.init 4 (fun _ -> Branch_model.outcome st 0))

let test_bernoulli_rate () =
  let st = Branch_model.make_state [| Branch_model.Bernoulli 0.8 |] ~seed:5 in
  let taken = ref 0 in
  for _ = 1 to 10_000 do
    if Branch_model.outcome st 0 then incr taken
  done;
  let rate = float_of_int !taken /. 10_000.0 in
  check_bool "rate near 0.8" true (rate > 0.77 && rate < 0.83)

let test_branch_reset_replays () =
  let st = Branch_model.make_state [| Branch_model.Bernoulli 0.5 |] ~seed:9 in
  let first = List.init 20 (fun _ -> Branch_model.outcome st 0) in
  Branch_model.reset st;
  let second = List.init 20 (fun _ -> Branch_model.outcome st 0) in
  Alcotest.(check (list bool)) "reset replays stream" first second

let test_branch_model_validation () =
  Alcotest.check_raises "bad loop"
    (Invalid_argument "Branch_model: loop trip count >= 1") (fun () ->
      ignore (Branch_model.make_state [| Branch_model.Loop 0 |] ~seed:1));
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Branch_model: probability range") (fun () ->
      ignore (Branch_model.make_state [| Branch_model.Bernoulli 1.5 |] ~seed:1))

(* ---- Memory models ---------------------------------------------------- *)

let test_strided_walk () =
  let st =
    Mem_model.make_state
      [| Mem_model.Strided { base = 1000; stride = 8; footprint = 32 } |]
      ~seed:1
  in
  let addrs = List.init 6 (fun _ -> Mem_model.next_address st 0) in
  Alcotest.(check (list int)) "wraps at footprint"
    [ 1000; 1008; 1016; 1024; 1000; 1008 ]
    addrs

let test_uniform_in_range () =
  let st =
    Mem_model.make_state
      [| Mem_model.Uniform { base = 4096; footprint = 8192; granule = 8 } |]
      ~seed:3
  in
  for _ = 1 to 1000 do
    let a = Mem_model.next_address st 0 in
    check_bool "in range" true (a >= 4096 && a < 4096 + 8192);
    check_int "aligned" 0 (a mod 8)
  done

let test_uniform_hot_set_locality () =
  let st =
    Mem_model.make_state
      [| Mem_model.Uniform { base = 0; footprint = 1 lsl 20; granule = 8 } |]
      ~seed:7
  in
  let hot = max 4096 ((1 lsl 20) / 16) in
  let in_hot = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Mem_model.next_address st 0 < hot then incr in_hot
  done;
  let rate = float_of_int !in_hot /. float_of_int n in
  check_bool "about 80% hot" true (rate > 0.75 && rate < 0.90)

let test_chase_in_range_and_serial () =
  let st =
    Mem_model.make_state [| Mem_model.Chase { base = 0; footprint = 4096 } |]
      ~seed:1
  in
  let a = Mem_model.next_address st 0 in
  let b = Mem_model.next_address st 0 in
  check_bool "in range" true (a >= 0 && a < 4096 && b >= 0 && b < 4096);
  check_bool "deterministic walk" true (a <> b)

let test_mem_reset_replays () =
  let st =
    Mem_model.make_state
      [| Mem_model.Chase { base = 0; footprint = 4096 } |]
      ~seed:1
  in
  let first = List.init 10 (fun _ -> Mem_model.next_address st 0) in
  Mem_model.reset st;
  let second = List.init 10 (fun _ -> Mem_model.next_address st 0) in
  Alcotest.(check (list int)) "reset replays chase" first second

let test_strided_negative_stride_wraps () =
  let st =
    Mem_model.make_state
      [| Mem_model.Strided { base = 100; stride = -8; footprint = 24 } |]
      ~seed:1
  in
  let addrs = List.init 4 (fun _ -> Mem_model.next_address st 0) in
  (* walks backward and wraps inside [base, base+footprint) offsets *)
  Alcotest.(check (list int)) "backward wrap" [ 100; 116; 108; 100 ] addrs

let test_mem_extent () =
  Alcotest.(check (pair int int)) "extent" (64, 128)
    (Mem_model.extent (Mem_model.Strided { base = 64; stride = 8; footprint = 128 }))

let test_mem_validation () =
  Alcotest.check_raises "zero stride" (Invalid_argument "Mem_model: zero stride")
    (fun () ->
      ignore
        (Mem_model.make_state
           [| Mem_model.Strided { base = 0; stride = 0; footprint = 8 } |]
           ~seed:1))

(* ---- Tracegen --------------------------------------------------------- *)

(* A two-block loop: body (3 alus) -> latch with Loop(3) branch. *)
let loop_workload () =
  let b = Program.Builder.create ~name:"loop" ~nregs_per_class:8 () in
  let m = Program.Builder.branch_model b in
  let body = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  (* let-bound so micro-op ids follow program order (list literals
     evaluate right to left). *)
  let u0 = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) () in
  let u1 =
    Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 1) ~srcs:[| Reg.int 0 |] ()
  in
  let u2 =
    Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 1 |] ~branch_ref:m ()
  in
  let uops = [ u0; u1; u2 ] in
  Program.Builder.define_block b body uops ~succs:[ exit_; body ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  let program = Program.Builder.finish b ~entry:body in
  (program, [| Branch_model.Loop 3 |])

let test_tracegen_loop_walk () =
  let program, branches = loop_workload () in
  let gen = Tracegen.create ~program ~branches ~streams:[||] ~seed:1 in
  (* Loop(3): the block runs 3 times, then exits and wraps to entry.
     Sequence of static ids: 0 1 2 | 0 1 2 | 0 1 2 | (exit->restart) 0 1 2 *)
  let ids = Array.map Dynuop.static_id (Tracegen.take gen 12) in
  Alcotest.(check (array int)) "loop ids"
    [| 0; 1; 2; 0; 1; 2; 0; 1; 2; 0; 1; 2 |]
    ids

let test_tracegen_branch_outcomes () =
  let program, branches = loop_workload () in
  let gen = Tracegen.create ~program ~branches ~streams:[||] ~seed:1 in
  let duops = Tracegen.take gen 9 in
  let outcomes =
    Array.to_list duops
    |> List.filter (fun d -> Uop.is_branch d.Dynuop.suop)
    |> List.map (fun d -> d.Dynuop.taken)
  in
  Alcotest.(check (list bool)) "taken taken not-taken"
    [ true; true; false ] outcomes

let test_tracegen_determinism () =
  let program, branches = loop_workload () in
  let g1 = Tracegen.create ~program ~branches ~streams:[||] ~seed:5 in
  let g2 = Tracegen.create ~program ~branches ~streams:[||] ~seed:5 in
  let t1 = Tracegen.take g1 100 and t2 = Tracegen.take g2 100 in
  Array.iteri
    (fun i d ->
      check_int "same id" (Dynuop.static_id d) (Dynuop.static_id t2.(i));
      check_bool "same outcome" d.Dynuop.taken t2.(i).Dynuop.taken)
    t1

let test_tracegen_seq_numbers_dense () =
  let program, branches = loop_workload () in
  let gen = Tracegen.create ~program ~branches ~streams:[||] ~seed:1 in
  let duops = Tracegen.take gen 50 in
  Array.iteri (fun i d -> check_int "dense seq" i d.Dynuop.seq) duops;
  check_int "generated" 50 (Tracegen.generated gen)

let test_tracegen_memory_addresses () =
  let b = Program.Builder.create ~name:"mem" ~nregs_per_class:8 () in
  let s = Program.Builder.stream b in
  let load =
    Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0) ~srcs:[| Reg.int 1 |]
      ~stream:s ()
  in
  let blk = Program.Builder.add_block b [ load ] ~succs:[] in
  let program = Program.Builder.finish b ~entry:blk in
  let streams = [| Mem_model.Strided { base = 0; stride = 8; footprint = 24 } |] in
  let gen = Tracegen.create ~program ~branches:[||] ~streams ~seed:1 in
  let addrs = Array.map (fun d -> d.Dynuop.addr) (Tracegen.take gen 4) in
  Alcotest.(check (array int)) "strided addrs" [| 0; 8; 16; 0 |] addrs

let test_tracegen_model_arity_check () =
  let program, _ = loop_workload () in
  Alcotest.check_raises "missing branch models"
    (Invalid_argument "Tracegen.create: branch model arity mismatch") (fun () ->
      ignore (Tracegen.create ~program ~branches:[||] ~streams:[||] ~seed:1))

let test_tracegen_no_wrap_periodicity () =
  (* With a Bernoulli branch the wrapped walk must NOT repeat the same
     outcome sequence (models keep rolling across restarts). *)
  let b = Program.Builder.create ~name:"bern" ~nregs_per_class:4 () in
  let m = Program.Builder.branch_model b in
  let blk = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  let br =
    Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 0 |] ~branch_ref:m ()
  in
  Program.Builder.define_block b blk [ br ] ~succs:[ exit_; exit_ ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  let program = Program.Builder.finish b ~entry:blk in
  let gen =
    Tracegen.create ~program ~branches:[| Branch_model.Bernoulli 0.5 |]
      ~streams:[||] ~seed:3
  in
  let outcomes = Array.map (fun d -> d.Dynuop.taken) (Tracegen.take gen 64) in
  let first_half = Array.sub outcomes 0 32 in
  let second_half = Array.sub outcomes 32 32 in
  check_bool "not periodic" true (first_half <> second_half)

(* ---- Columns ---------------------------------------------------------- *)

(* A random program: a chain of up to five blocks, the first never
   empty, the others possibly so; loads on fresh streams, and blocks
   that end in a branch to a random block. Short enough that long
   streams wrap many times. *)
let random_program st =
  let rint n = Random.State.int st n in
  let b = Program.Builder.create ~name:"rand" ~nregs_per_class:8 () in
  let nblocks = 1 + rint 5 in
  let blocks = Array.init nblocks (fun _ -> Program.Builder.reserve_block b) in
  let exit_ = Program.Builder.reserve_block b in
  let streams = ref [] and branches = ref [] in
  Array.iteri
    (fun i blk ->
      let body =
        List.init
          ((if i = 0 then 1 else 0) + rint 4)
          (fun _ ->
            if Random.State.bool st then begin
              let s = Program.Builder.stream b in
              let base = 64 * rint 1000 and footprint = 8 + rint 20_000 in
              streams :=
                (match rint 3 with
                | 0 -> Mem_model.Strided { base; stride = 8 * (1 + rint 9); footprint }
                | 1 -> Mem_model.Uniform { base; footprint; granule = 8 }
                | _ -> Mem_model.Chase { base; footprint })
                :: !streams;
              Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0)
                ~srcs:[| Reg.int 1 |] ~stream:s ()
            end
            else
              Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 2)
                ~srcs:[| Reg.int 0 |] ())
      in
      let next = if i + 1 < nblocks then blocks.(i + 1) else exit_ in
      if Random.State.bool st then begin
        let m = Program.Builder.branch_model b in
        branches :=
          (match rint 3 with
          | 0 -> Branch_model.Bernoulli (Random.State.float st 1.0)
          | 1 -> Branch_model.Loop (1 + rint 6)
          | _ -> Branch_model.Pattern (Array.init (1 + rint 5) (fun _ -> Random.State.bool st)))
          :: !branches;
        let br =
          Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 2 |]
            ~branch_ref:m ()
        in
        Program.Builder.define_block b blk (body @ [ br ])
          ~succs:[ next; blocks.(rint nblocks) ]
      end
      else Program.Builder.define_block b blk body ~succs:[ next ])
    blocks;
  Program.Builder.define_block b exit_ [] ~succs:[];
  ( Program.Builder.finish b ~entry:blocks.(0),
    Array.of_list (List.rev !branches),
    Array.of_list (List.rev !streams) )

(* The stream as (static id, address, taken) triples, three ways: from
   [next], from [fill] in chunks of [chunk], and read back one position
   at a time through a {!Columns} buffer, which grows past its first
   4096 entries on the longer streams. *)
let triples_agree make ~n ~chunk =
  let expected =
    Array.map
      (fun d -> (Dynuop.static_id d, d.Dynuop.addr, Bool.to_int d.Dynuop.taken))
      (Tracegen.take (make ()) n)
  in
  let filled =
    let gen = make () in
    let sid = Array.make n 0 and addr = Array.make n 0 and taken = Array.make n 0 in
    let pos = ref 0 in
    while !pos < n do
      let len = min chunk (n - !pos) in
      Tracegen.fill gen ~sid ~addr ~taken ~pos:!pos ~len;
      pos := !pos + len
    done;
    Array.init n (fun i -> (sid.(i), addr.(i), taken.(i)))
  in
  let read =
    let c = Columns.of_generator (make ()) in
    Array.init n (fun p ->
        Columns.ensure c p;
        let i = p - c.Columns.base in
        (c.Columns.sid.(i), c.Columns.addr.(i), c.Columns.taken.(i)))
  in
  expected = filled && expected = read

(* Without a shrinker: a counterexample is reported as found, not
   after minutes of regenerating long streams. *)
let prop_fill_matches_next_random =
  QCheck.Test.make ~name:"fill = next (random programs)" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(triple int int int)
       QCheck.Gen.(triple small_nat (int_range 1 9000) (int_range 1 700)))
    (fun (seed, n, chunk) ->
      let st = Random.State.make [| seed |] in
      let program, branches, streams = random_program st in
      triples_agree ~n ~chunk (fun () ->
          Tracegen.create ~program ~branches ~streams ~seed))

let prop_fill_matches_next_spec =
  let workloads =
    List.map Clusteer_workloads.Synth.build
      (List.map Clusteer_workloads.Spec2000.find [ "gzip-1"; "mcf"; "swim"; "crafty" ])
  in
  QCheck.Test.make ~name:"fill = next (SPEC workloads)" ~count:20
    (QCheck.make
       ~print:QCheck.Print.(quad int int int int)
       QCheck.Gen.(quad (int_range 0 3) int (int_range 1 9000) (int_range 1 700)))
    (fun (w, seed, n, chunk) ->
      let w = List.nth workloads w in
      triples_agree ~n ~chunk (fun () -> Clusteer_workloads.Synth.trace w ~seed))

let test_columns_rewind () =
  (* A rewound buffer restarts on the new generator's stream, from
     position 0, and takes its program's micro-ops. *)
  let program, branches = loop_workload () in
  let gen seed = Tracegen.create ~program ~branches ~streams:[||] ~seed in
  let c = Columns.create () in
  Alcotest.check_raises "no stream before a rewind"
    (Invalid_argument "Columns: no stream; rewind the buffer first") (fun () ->
      Columns.ensure c 0);
  Columns.rewind c (gen 1);
  Columns.ensure c 5000;
  Columns.rewind c (gen 1);
  check_int "rewound to position 0" 0 c.Columns.len;
  Columns.ensure c 11;
  Alcotest.(check (array int)) "the stream again"
    [| 0; 1; 2; 0; 1; 2; 0; 1; 2; 0; 1; 2 |]
    (Array.sub c.Columns.sid 0 12);
  check_int "its program's micro-ops" 3 (Array.length c.Columns.uops);
  check_bool "by id" true (c.Columns.uops.(2) == Program.uop program 2)

let () =
  Alcotest.run "clusteer_trace"
    [
      ( "branch-models",
        [
          Alcotest.test_case "loop pattern" `Quick test_loop_model_pattern;
          Alcotest.test_case "loop trip one" `Quick test_loop_trip_one_never_taken;
          Alcotest.test_case "pattern repeats" `Quick test_pattern_model_repeats;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "reset replays" `Quick test_branch_reset_replays;
          Alcotest.test_case "validation" `Quick test_branch_model_validation;
        ] );
      ( "mem-models",
        [
          Alcotest.test_case "strided walk" `Quick test_strided_walk;
          Alcotest.test_case "uniform range" `Quick test_uniform_in_range;
          Alcotest.test_case "hot-set locality" `Quick test_uniform_hot_set_locality;
          Alcotest.test_case "chase" `Quick test_chase_in_range_and_serial;
          Alcotest.test_case "reset replays" `Quick test_mem_reset_replays;
          Alcotest.test_case "negative stride" `Quick test_strided_negative_stride_wraps;
          Alcotest.test_case "extent" `Quick test_mem_extent;
          Alcotest.test_case "validation" `Quick test_mem_validation;
        ] );
      ( "tracegen",
        [
          Alcotest.test_case "loop walk" `Quick test_tracegen_loop_walk;
          Alcotest.test_case "branch outcomes" `Quick test_tracegen_branch_outcomes;
          Alcotest.test_case "determinism" `Quick test_tracegen_determinism;
          Alcotest.test_case "dense seq" `Quick test_tracegen_seq_numbers_dense;
          Alcotest.test_case "memory addresses" `Quick test_tracegen_memory_addresses;
          Alcotest.test_case "arity check" `Quick test_tracegen_model_arity_check;
          Alcotest.test_case "no wrap periodicity" `Quick test_tracegen_no_wrap_periodicity;
        ] );
      ( "columns",
        [
          QCheck_alcotest.to_alcotest prop_fill_matches_next_random;
          QCheck_alcotest.to_alcotest prop_fill_matches_next_spec;
          Alcotest.test_case "rewind" `Quick test_columns_rewind;
        ] );
    ]
