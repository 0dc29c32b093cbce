(* Tests for the runtime steering policies, using hand-built views. *)

open Clusteer_isa
open Clusteer_uarch
module Steer = Clusteer_steer
module Bitset = Clusteer_util.Bitset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A malleable fake machine view. *)
type fake = {
  inflight : int array;
  free : int array;  (* per-cluster free slots of every queue *)
  locs : (Reg.t, Bitset.t) Hashtbl.t;
  mutable now : int;
}

let fake_view ?(annot = Annot.none ~uop_count:64) f =
  let location r =
    Option.value ~default:(Bitset.full (Array.length f.inflight))
      (Hashtbl.find_opt f.locs r)
  in
  {
    Policy.clusters = Array.length f.inflight;
    cycle = (fun () -> f.now);
    inflight = (fun c -> f.inflight.(c));
    queue_free = (fun c _ -> f.free.(c));
    src_locations_into =
      (fun u buf ->
        let srcs = u.Uop.srcs in
        Array.iteri (fun i src -> buf.(i) <- location src) srcs;
        Array.length srcs);
    reg_location = location;
    annot;
  }

let mk_fake ?(clusters = 2) () =
  {
    inflight = Array.make clusters 0;
    free = Array.make clusters 48;
    locs = Hashtbl.create 8;
    now = 0;
  }

let alu ~id ~dst ~srcs =
  Uop.make ~id ~opcode:Opcode.Int_alu ~dst:(Reg.int dst)
    ~srcs:(Array.of_list (List.map Reg.int srcs))
    ()

let decide policy view d =
  match policy.Policy.decide view d with
  | Policy.Dispatch_to c -> c
  | Policy.Stall -> -1

(* ---- one-cluster -------------------------------------------------------- *)

let test_one_cluster_always_zero () =
  let f = mk_fake () in
  let p = Steer.One_cluster.make () in
  f.inflight.(0) <- 1000;
  check_int "always 0" 0 (decide p (fake_view f) (alu ~id:0 ~dst:0 ~srcs:[]))

(* ---- OP ------------------------------------------------------------------- *)

let test_op_follows_operands () =
  let f = mk_fake () in
  let p = Steer.Op.make () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  (* Even though cluster 0 is idle, the operand lives in cluster 1. *)
  check_int "follows operand" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]))

let test_op_tie_breaks_least_loaded () =
  let f = mk_fake () in
  let p = Steer.Op.make () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  Hashtbl.replace f.locs (Reg.int 2) (Bitset.singleton 1);
  f.inflight.(0) <- 10;
  (* One operand in each cluster: the vote ties, the emptier cluster 1
     wins. *)
  check_int "tie to least loaded" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:3 ~srcs:[ 1; 2 ]))

let test_op_stall_over_steer () =
  let f = mk_fake () in
  let p = Steer.Op.make ~stall_threshold:16 () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  f.free.(0) <- 0;
  f.free.(1) <- 5;
  (* Preferred cluster full; the other one is busy too (below the
     threshold): stall rather than steer away. *)
  check_int "stalls" (-1)
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]));
  f.free.(1) <- 40;
  check_int "steers away when idle" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]))

let test_op_rotates_exact_ties () =
  (* Source-free micro-ops on a perfectly symmetric machine: every
     decision ties on both the vote and the load. The rotation
     tie-break must spread them over the clusters instead of funnelling
     everything into cluster 0. *)
  let f = mk_fake () in
  let p = Steer.Op.make () in
  let view = fake_view f in
  let picks =
    List.init 8 (fun i -> decide p view (alu ~id:i ~dst:0 ~srcs:[]))
  in
  Alcotest.(check (list int)) "alternates" [ 0; 1; 0; 1; 0; 1; 0; 1 ] picks;
  (* Balance entropy of the resulting placement must be (near) perfect;
     the pre-rotation behaviour scored 0 (all decisions on cluster 0). *)
  let stats = Stats.create ~clusters:2 in
  List.iter
    (fun c ->
      stats.Stats.per_cluster_dispatched.(c) <-
        stats.Stats.per_cluster_dispatched.(c) + 1)
    picks;
  Alcotest.(check bool)
    "entropy >= 0.99" true
    (Stats.balance_entropy stats >= 0.99)

let test_op_rotation_never_overrides_untied_picks () =
  (* A real vote winner (or a load difference) must win regardless of
     where the rotation currently points. *)
  let f = mk_fake () in
  let p = Steer.Op.make () in
  let view = fake_view f in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  let picks =
    List.init 6 (fun i -> decide p view (alu ~id:i ~dst:2 ~srcs:[ 1 ]))
  in
  Alcotest.(check (list int)) "always the operand cluster" [ 1; 1; 1; 1; 1; 1 ]
    picks

let test_op_imbalance_override () =
  let f = mk_fake () in
  let p = Steer.Op.make ~imbalance_limit:20 () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  f.inflight.(0) <- 50;
  f.inflight.(1) <- 0;
  (* Gross imbalance: balance beats the dependence preference. *)
  check_int "balance override" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]))

(* ---- OP parallel (the §2.1 strawman) --------------------------------------- *)

let test_op_parallel_uses_stale_locations () =
  let f = mk_fake () in
  let p = Steer.Op_parallel.make () in
  let view = fake_view f in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  f.inflight.(0) <- 5 (* cluster 1 emptier *);
  (* First decision of the bundle writes r1 and goes to cluster 1; we
     mimic the engine updating the location table. *)
  let d1 = alu ~id:0 ~dst:1 ~srcs:[ 1 ] in
  let c1 = decide p view d1 in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton c1);
  (* Second decision reads r1 in the same cycle: the parallel scheme
     still sees the OLD location (cluster 0). *)
  let d2 = alu ~id:1 ~dst:2 ~srcs:[ 1 ] in
  f.inflight.(0) <- 5;
  f.inflight.(c1) <- 0;
  let c2 = decide p view d2 in
  check_int "stale vote goes to old location" 0 c2;
  (* The sequential implementation follows the fresh location. *)
  let seq_policy = Steer.Op.make () in
  check_int "sequential follows fresh" c1 (decide seq_policy view d2)

let test_op_parallel_resets_each_cycle () =
  let f = mk_fake () in
  let p = Steer.Op_parallel.make () in
  let view = fake_view f in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  let d1 = alu ~id:0 ~dst:1 ~srcs:[ 1 ] in
  let c1 = decide p view d1 in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton c1);
  (* New cycle: the stale table clears, fresh locations apply. *)
  f.now <- 1;
  let d2 = alu ~id:1 ~dst:2 ~srcs:[ 1 ] in
  check_int "fresh after cycle" c1 (decide p view d2)

(* ---- static ------------------------------------------------------------------ *)

let test_static_obeys_annotation () =
  let annot = Annot.create_static ~scheme:"ob" ~uop_count:4 in
  annot.Annot.cluster_of.(0) <- 1;
  annot.Annot.cluster_of.(1) <- 0;
  let p = Steer.Static.make ~name:"ob" ~annot in
  let f = mk_fake () in
  let view = fake_view ~annot f in
  check_int "uop 0 -> 1" 1 (decide p view (alu ~id:0 ~dst:0 ~srcs:[]));
  check_int "uop 1 -> 0" 0 (decide p view (alu ~id:1 ~dst:0 ~srcs:[]))

let test_static_unassigned_defaults_zero () =
  let annot = Annot.create_static ~scheme:"ob" ~uop_count:4 in
  let p = Steer.Static.make ~name:"ob" ~annot in
  let f = mk_fake () in
  check_int "fallback 0" 0
    (decide p (fake_view ~annot f) (alu ~id:2 ~dst:0 ~srcs:[]))

let test_static_clamps_foreign_cluster () =
  (* A 4-cluster annotation replayed on a 2-cluster machine falls back
     to cluster 0 instead of crashing. *)
  let annot = Annot.create_static ~scheme:"ob" ~uop_count:1 in
  annot.Annot.cluster_of.(0) <- 3;
  let p = Steer.Static.make ~name:"ob" ~annot in
  let f = mk_fake ~clusters:2 () in
  check_int "clamped" 0 (decide p (fake_view ~annot f) (alu ~id:0 ~dst:0 ~srcs:[]))

(* ---- VC mapper (Figure 4) ------------------------------------------------------- *)

let vc_annot () =
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:8 in
  (* uops 0-3 in vc 0 (leader 0), uops 4-7 in vc 1 (leader 4) *)
  Array.iteri (fun i _ -> annot.Annot.vc_of.(i) <- (if i < 4 then 0 else 1)) annot.Annot.vc_of;
  annot.Annot.leader.(0) <- true;
  annot.Annot.leader.(4) <- true;
  annot

let test_vc_non_leader_follows_table () =
  let annot = vc_annot () in
  let p = Steer.Vc_map.make ~annot ~clusters:2 () in
  let f = mk_fake () in
  let view = fake_view ~annot f in
  (* Non-leader uop 1 follows vc 0's initial mapping (cluster 0) even
     if cluster 0 looks loaded. *)
  f.inflight.(0) <- 99;
  check_int "follows table" 0 (decide p view (alu ~id:1 ~dst:0 ~srcs:[]))

let test_vc_leader_remaps_to_least_loaded () =
  let annot = vc_annot () in
  let p = Steer.Vc_map.make ~annot ~clusters:2 () in
  let f = mk_fake () in
  let view = fake_view ~annot f in
  f.inflight.(0) <- 99;
  (* Leader of vc 0 consults the counters and remaps to cluster 1. *)
  check_int "leader remaps" 1 (decide p view (alu ~id:0 ~dst:0 ~srcs:[]));
  (* Subsequent non-leaders of vc 0 follow the new mapping. *)
  check_int "chain follows" 1 (decide p view (alu ~id:2 ~dst:0 ~srcs:[]))

let test_vc_hysteresis_threshold () =
  let annot = vc_annot () in
  let p = Steer.Vc_map.make ~remap_threshold:10 ~annot ~clusters:2 () in
  let f = mk_fake () in
  let view = fake_view ~annot f in
  f.inflight.(0) <- 5 (* imbalance 5 < threshold 10: stay *);
  check_int "no remap under threshold" 0
    (decide p view (alu ~id:0 ~dst:0 ~srcs:[]));
  f.inflight.(0) <- 50;
  check_int "remap over threshold" 1
    (decide p view (alu ~id:0 ~dst:0 ~srcs:[]))

let test_vc_unassigned_goes_least_loaded () =
  let annot = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:8 in
  let p = Steer.Vc_map.make ~annot ~clusters:2 () in
  let f = mk_fake () in
  f.inflight.(0) <- 3;
  check_int "least loaded" 1
    (decide p (fake_view ~annot f) (alu ~id:0 ~dst:0 ~srcs:[]))

let test_vc_requires_virtual_annotation () =
  Alcotest.check_raises "no vcs"
    (Invalid_argument "Vc_map.make: annotation has no virtual clusters")
    (fun () ->
      ignore (Steer.Vc_map.make ~annot:(Annot.none ~uop_count:1) ~clusters:2 ()))

(* ---- dep (extension baseline) ------------------------------------------------------ *)

let test_dep_follows_operands () =
  let f = mk_fake () in
  let p = Steer.Dep.make () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  check_int "follows operand" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]))

let test_dep_never_stalls () =
  let f = mk_fake () in
  let p = Steer.Dep.make () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 0);
  f.free.(0) <- 0;
  f.free.(1) <- 0;
  (* Queues full everywhere: dep still picks a cluster (the engine
     will charge the allocation stall). *)
  check_int "no voluntary stall" 0
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]))

let test_dep_tie_least_loaded () =
  let f = mk_fake () in
  let p = Steer.Dep.make () in
  f.inflight.(0) <- 7;
  check_int "no operands -> least loaded" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[]))

(* ---- crit (extension baseline) ----------------------------------------------------- *)

let test_crit_critical_follows_operands () =
  let critical = [| true; false |] in
  let p = Steer.Crit.make ~critical () in
  let f = mk_fake () in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  (* uop 0 is critical: chases its operand into cluster 1 *)
  check_int "critical chases" 1
    (decide p (fake_view f) (alu ~id:0 ~dst:2 ~srcs:[ 1 ]));
  (* uop 1 is not: goes to the least-loaded cluster (0) *)
  f.inflight.(1) <- 5;
  check_int "non-critical balances" 0
    (decide p (fake_view f) (alu ~id:1 ~dst:2 ~srcs:[ 1 ]))

let test_crit_out_of_table_is_noncritical () =
  let p = Steer.Crit.make ~critical:[| true |] () in
  let f = mk_fake () in
  f.inflight.(0) <- 5;
  check_int "beyond table balances" 1
    (decide p (fake_view f) (alu ~id:7 ~dst:2 ~srcs:[]))

(* ---- complexity table ------------------------------------------------------------ *)

let test_complexity_table1 () =
  let c = Steer.Complexity.op in
  check_bool "op needs dep check" true c.Steer.Complexity.dependence_check;
  check_bool "op needs vote" true c.Steer.Complexity.vote_unit;
  check_bool "op serialized" true c.Steer.Complexity.serialized;
  let vc = Steer.Complexity.vc in
  check_bool "vc drops dep check" false vc.Steer.Complexity.dependence_check;
  check_bool "vc drops vote" false vc.Steer.Complexity.vote_unit;
  check_bool "vc keeps balance counters" true vc.Steer.Complexity.workload_balance;
  check_bool "vc keeps copy generator" true vc.Steer.Complexity.copy_generator;
  check_bool "vc not serialized" false vc.Steer.Complexity.serialized;
  check_int "five rows" 5 (List.length (Steer.Complexity.table_rows ()))

(* ---- repeat ------------------------------------------------------------------------ *)

module Counters = Clusteer_obs.Counters
module Topology = Clusteer_topo.Topology

(* One law case: a machine shape, a frozen view, an annotation, a
   history of consults, the repeated micro-op with its count [k], and
   the consults that follow. *)
type law_case = {
  clusters : int;
  hier : bool;  (* hier2x4 rather than point-to-point *)
  f : fake;
  annot : Annot.t;
  critical : bool array;
  knobs : int * int * int;  (* stall threshold, imbalance limit, remap threshold *)
  history : Uop.t list;
  u : Uop.t;
  k : int;
  after : Uop.t list;
}

let law_uops = 16

let gen_law_case =
  let open QCheck.Gen in
  let* hier = bool in
  let* clusters = if hier then return 8 else oneofl [ 2; 4; 8 ] in
  let full = Bitset.full clusters in
  (* Few distinct loads and many full masks: vote and load ties. *)
  let* inflight = array_size (return clusters) (int_bound 3) in
  let* free =
    array_size (return clusters) (frequency [ (2, return 48); (1, return 0); (1, int_bound 40) ])
  in
  let* locs =
    list_size (return 6)
      (frequency
         [
           (2, return full);
           (2, map Bitset.singleton (int_bound (clusters - 1)));
           (1, map (fun m -> Bitset.of_mask (m land (Bitset.full clusters :> int))) (int_bound 255));
         ])
  in
  let locs = List.map (fun l -> if Bitset.is_empty l then full else l) locs in
  let* vcs = int_range 1 3 in
  let* vc_of = array_size (return law_uops) (int_range (-1) (vcs - 1)) in
  let* leader = array_size (return law_uops) bool in
  let* cluster_of = array_size (return law_uops) (int_range (-1) (clusters + 1)) in
  let* critical = array_size (return law_uops) bool in
  let* knobs =
    triple (oneofl [ 16; 36 ]) (oneofl [ 1; 200 ]) (oneofl [ -1; 0; 1; 8 ])
  in
  let uop =
    let* id = int_bound (law_uops - 1) in
    let* nsrcs = int_bound 2 in
    let* srcs = list_size (return nsrcs) (int_bound 5) in
    let* dst = int_bound 5 in
    let* fp = frequency [ (3, return false); (1, return true) ] in
    let reg = if fp then Reg.fp else Reg.int in
    return
      (Uop.make ~id
         ~opcode:(if fp then Opcode.Fp_add else Opcode.Int_alu)
         ~dst:(reg dst)
         ~srcs:(Array.of_list (List.map reg srcs))
         ())
  in
  let* history = list_size (int_bound 12) uop in
  let* u = uop in
  let* k = int_range 1 ((2 * clusters) + 1) in
  let* after = list_size (int_bound 6) uop in
  let f =
    { inflight; free; locs = Hashtbl.create 12; now = 7 }
  in
  List.iteri
    (fun i l ->
      Hashtbl.replace f.locs (Reg.int i) l;
      Hashtbl.replace f.locs (Reg.fp i) l)
    locs;
  let annot =
    Annot.create_virtual ~scheme:"law" ~virtual_clusters:vcs ~uop_count:law_uops
  in
  Array.blit vc_of 0 annot.Annot.vc_of 0 law_uops;
  Array.iteri
    (fun i l -> annot.Annot.leader.(i) <- l && vc_of.(i) >= 0)
    leader;
  Array.blit cluster_of 0 annot.Annot.cluster_of 0 law_uops;
  return
    { clusters; hier; f; annot; critical; knobs; history; u; k; after }

let law_print c =
  Printf.sprintf "%d clusters (%s), k = %d, u = #%d, %d consults before, %d after"
    c.clusters (if c.hier then "hier2x4" else "p2p") c.k c.u.Uop.id
    (List.length c.history) (List.length c.after)

(* Every in-tree policy, built for one case into [registry]. *)
let law_policies c =
  let stall_threshold, imbalance_limit, remap_threshold = c.knobs in
  let topology =
    if c.hier then Topology.hier ~groups:2 ~group_size:4 ()
    else Topology.p2p ~clusters:c.clusters ()
  in
  [
    ("one-cluster", fun _ -> Steer.One_cluster.make ());
    ("static", fun _ -> Steer.Static.make ~name:"ob" ~annot:c.annot);
    ( "op",
      fun registry ->
        Steer.Op.make ~stall_threshold ~imbalance_limit ~registry ~topology () );
    ( "op-parallel",
      fun _ -> Steer.Op_parallel.make ~stall_threshold ~imbalance_limit () );
    ("dep", fun registry -> Steer.Dep.make ~registry ());
    ("crit", fun _ -> Steer.Crit.make ~critical:c.critical ());
    ( "vc",
      fun registry ->
        Steer.Vc_map.make ~remap_threshold ~registry ~topology ~annot:c.annot
          ~clusters:c.clusters () );
  ]

let registry_json r = Clusteer_obs.Json.to_string (Counters.to_json r)

(* [repeat view u k] after a consult of [u] either returns [false] and
   changes nothing, or stands for [k] consults that all repeat the
   last decision: the policy's later decisions and its counters equal
   those of a twin that consulted [k] more times. *)
let repeat_law_holds c (name, make) =
  let view = fake_view ~annot:c.annot c.f in
  let ra = Counters.create () and rb = Counters.create () in
  let a = make ra and b = make rb in
  let fail fmt =
    Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s: %s" name m) fmt
  in
  List.iter
    (fun u ->
      ignore (a.Policy.decide view u);
      ignore (b.Policy.decide view u))
    c.history;
  let d = a.Policy.decide view c.u in
  if b.Policy.decide view c.u <> d then fail "twins diverged";
  let before = registry_json ra in
  let repeated =
    match a.Policy.repeat with
    | None -> fail "no repeat"
    | Some repeat -> repeat view c.u c.k
  in
  if repeated then
    for i = 1 to c.k do
      if b.Policy.decide view c.u <> d then
        fail "repeat returned true, but consult %d of %d answers differently" i
          c.k
    done
  else if registry_json ra <> before then fail "a refused repeat charged counters";
  if registry_json ra <> registry_json rb then
    fail "counters differ after the repeat (%b)" repeated;
  List.iteri
    (fun i u ->
      if a.Policy.decide view u <> b.Policy.decide view u then
        fail "decision %d after the repeat differs" i)
    (c.u :: c.after);
  if registry_json ra <> registry_json rb then fail "counters differ at the end";
  true

let prop_repeat_law =
  QCheck.Test.make ~name:"repeat = k consults, every policy" ~count:400
    (QCheck.make ~print:law_print gen_law_case)
    (fun c -> List.for_all (repeat_law_holds c) (law_policies c))

let repeat_of p = Option.get p.Policy.repeat

(* Source-free micro-ops on a symmetric machine alternate clusters under
   Op's tie rotation, so no consult repeats the one before. *)
let test_op_repeat_refuses_rotation () =
  let f = mk_fake () in
  let view = fake_view f in
  let r = Counters.create () in
  let p = Steer.Op.make ~registry:r () in
  let u = alu ~id:0 ~dst:0 ~srcs:[] in
  check_int "first pick" 0 (decide p view u);
  let before = registry_json r in
  List.iter
    (fun k -> check_bool (Printf.sprintf "k = %d refused" k) false (repeat_of p view u k))
    [ 1; 2; 5 ];
  Alcotest.(check string) "nothing charged" before (registry_json r);
  check_int "rotation continues" 1 (decide p view u);
  (* An operand in cluster 1 is an untied vote: every rotation agrees. *)
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  let v = alu ~id:1 ~dst:2 ~srcs:[ 1 ] in
  check_int "untied pick" 1 (decide p view v);
  check_bool "untied repeat" true (repeat_of p view v 5);
  check_int "op.decisions" 8
    (Counters.value (Counters.counter ~registry:r "op.decisions"))

(* Each policy repeats a consult on an unchanged view: a Vc leader
   right after its own consult, an Op pick no rotation changes. *)
let test_repeat_fires () =
  let annot = vc_annot () in
  let f = mk_fake () in
  let view = fake_view ~annot f in
  Hashtbl.replace f.locs (Reg.int 1) (Bitset.singleton 1);
  f.inflight.(0) <- 20;
  let u = alu ~id:0 ~dst:2 ~srcs:[ 1 ] in
  List.iter
    (fun (name, p) ->
      ignore (decide p view u);
      check_bool name true (repeat_of p view u 3))
    [
      ("one-cluster", Steer.One_cluster.make ());
      ("static", Steer.Static.make ~name:"ob" ~annot);
      ("op", Steer.Op.make ());
      ("op-parallel", Steer.Op_parallel.make ());
      ("dep", Steer.Dep.make ());
      ("crit", Steer.Crit.make ~critical:[| true |] ());
      ("vc leader after a remap", Steer.Vc_map.make ~annot ~clusters:2 ());
    ]

(* ---- policy flags ------------------------------------------------------------------ *)

let test_policy_flags () =
  check_bool "op votes" true (Steer.Op.make ()).Policy.uses_vote_unit;
  check_bool "vc no vote" false
    (Steer.Vc_map.make ~annot:(vc_annot ()) ~clusters:2 ()).Policy.uses_vote_unit;
  check_bool "static no vote" false
    (Steer.Static.make ~name:"x" ~annot:(Annot.none ~uop_count:1)).Policy.uses_vote_unit

let () =
  Alcotest.run "clusteer_steer"
    [
      ("one-cluster", [ Alcotest.test_case "always zero" `Quick test_one_cluster_always_zero ]);
      ( "op",
        [
          Alcotest.test_case "follows operands" `Quick test_op_follows_operands;
          Alcotest.test_case "tie to least loaded" `Quick test_op_tie_breaks_least_loaded;
          Alcotest.test_case "stall over steer" `Quick test_op_stall_over_steer;
          Alcotest.test_case "imbalance override" `Quick test_op_imbalance_override;
          Alcotest.test_case "rotates exact ties" `Quick test_op_rotates_exact_ties;
          Alcotest.test_case "rotation keeps untied picks" `Quick
            test_op_rotation_never_overrides_untied_picks;
        ] );
      ( "op-parallel",
        [
          Alcotest.test_case "stale locations" `Quick test_op_parallel_uses_stale_locations;
          Alcotest.test_case "cycle reset" `Quick test_op_parallel_resets_each_cycle;
        ] );
      ( "static",
        [
          Alcotest.test_case "obeys annotation" `Quick test_static_obeys_annotation;
          Alcotest.test_case "unassigned default" `Quick test_static_unassigned_defaults_zero;
          Alcotest.test_case "clamps foreign cluster" `Quick test_static_clamps_foreign_cluster;
        ] );
      ( "vc-map",
        [
          Alcotest.test_case "non-leader follows" `Quick test_vc_non_leader_follows_table;
          Alcotest.test_case "leader remaps" `Quick test_vc_leader_remaps_to_least_loaded;
          Alcotest.test_case "hysteresis" `Quick test_vc_hysteresis_threshold;
          Alcotest.test_case "unassigned least loaded" `Quick test_vc_unassigned_goes_least_loaded;
          Alcotest.test_case "requires vcs" `Quick test_vc_requires_virtual_annotation;
        ] );
      ( "dep",
        [
          Alcotest.test_case "follows operands" `Quick test_dep_follows_operands;
          Alcotest.test_case "never stalls" `Quick test_dep_never_stalls;
          Alcotest.test_case "tie least loaded" `Quick test_dep_tie_least_loaded;
        ] );
      ( "crit",
        [
          Alcotest.test_case "critical chases" `Quick test_crit_critical_follows_operands;
          Alcotest.test_case "table bounds" `Quick test_crit_out_of_table_is_noncritical;
        ] );
      ( "repeat",
        [
          QCheck_alcotest.to_alcotest prop_repeat_law;
          Alcotest.test_case "op refuses a rotation" `Quick
            test_op_repeat_refuses_rotation;
          Alcotest.test_case "every policy repeats" `Quick test_repeat_fires;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "table 1" `Quick test_complexity_table1;
          Alcotest.test_case "policy flags" `Quick test_policy_flags;
        ] );
    ]
