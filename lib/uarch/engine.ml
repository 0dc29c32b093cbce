open Clusteer_isa
open Clusteer_trace
module Bitset = Clusteer_util.Bitset
module Pqueue = Clusteer_util.Pqueue
module Vec = Clusteer_util.Vec
module Wheel = Clusteer_util.Wheel
module Obs_event = Clusteer_obs.Event
module Obs_sink = Clusteer_obs.Sink
module Obs_counters = Clusteer_obs.Counters
module Obs_profile = Clusteer_obs.Profile

(* ---- in-flight state ---------------------------------------------- *)

(* One in-flight micro-op. Slots are preallocated and recycled, so the
   per-uop path allocates nothing: slot [id < rob_size] belongs to ROB
   position [id] and holds the program micro-op dispatched there until
   it commits; slots above are a free-listed pool of inter-cluster
   copies, each returned when the last of its two events fires.

   Every reference to a slot is an int: its age and id in a ready queue,
   its id and event kind in the event wheel, and intrusive links for the
   wakeup and store tables. A slot is linked into those tables only
   while it is in flight (a waiter until woken, a store until it
   commits or a younger store to its address replaces it), so no table
   can name a slot after it has been recycled. A slot names its
   micro-op by static id too (resolved through the engine's [uops]
   table), so filling one stores no pointer. *)
type inst = {
  id : int;
  mutable iseq : int;  (* global age, used as select priority *)
  mutable cluster : int;  (* where it is queued / executes *)
  mutable qidx : int;  (* issue queue: 0 int, 1 fp, 2 copy *)
  mutable dst_tag : int;  (* -1 = none *)
  mutable waiting : int;  (* outstanding operands *)
  mutable completed : bool;
  mutable took_mshr : bool;  (* load in flight past the L1 *)
  mutable mispredicted : bool;
  mutable sid : int;  (* ops: static id of the program micro-op *)
  mutable addr : int;  (* ops: its byte address, -1 if not memory *)
  mutable copy_to : int;  (* copies: destination cluster *)
  mutable copy_tag : int;  (* copies: the value tag moved *)
  mutable events_left : int;  (* copies: events still queued *)
  mutable store_waiters : int;  (* stores: first blocked load, -1 = none *)
  mutable next_store_waiter : int;  (* loads: next load on the same store *)
  mutable store_key : int;  (* stores: 8-byte-aligned address *)
  mutable next_store : int;  (* stores: next store in the table bucket *)
}

let fresh_inst id =
  {
    id;
    iseq = 0;
    cluster = 0;
    qidx = 0;
    dst_tag = -1;
    waiting = 0;
    completed = false;
    took_mshr = false;
    mispredicted = false;
    sid = -1;
    addr = -1;
    copy_to = -1;
    copy_tag = -1;
    events_left = 0;
    store_waiters = -1;
    next_store_waiter = -1;
    store_key = -1;
    next_store = -1;
  }

(* Event-wheel payloads: slot id and kind in one int. *)
let ev_complete id = id lsl 1
let ev_copy_arrive id = (id lsl 1) lor 1

(* Ready-queue entries: age above, slot id below, in one int. Live
   ages are unique, so the smallest entry is the oldest micro-op, as a
   heap keyed by age alone would pick it. [slot_bits] leaves 42 bits
   of age on a 64-bit host. *)
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1
let ready_entry inst = (inst.iseq lsl slot_bits) lor inst.id

let check_slot_count n =
  if n > slot_mask + 1 then
    invalid_arg
      (Printf.sprintf "Engine: %d in-flight slots exceed the %d a ready entry \
                       can name" n (slot_mask + 1))

(* Waiter-table nodes are preassigned: micro-ops have at most two
   register sources, so node [2 * id + i] is slot [id]'s wait on its
   [i]-th source (a copy uses node [2 * id]). *)
let max_srcs = 2

(* Bucket counts of the two intrusive hash tables; powers of two. At
   most a ROB's worth of waits and an LSQ's worth of stores are live,
   so chains stay short. *)
let waiter_buckets = 1024
let store_buckets = 256

(* Self-profiler spans, interned once at creation so the per-cycle
   instrumented path touches no hashtable. *)
type prof_spans = {
  p_fetch : Obs_profile.span;
  p_dispatch : Obs_profile.span;
  p_issue : Obs_profile.span;
  p_writeback : Obs_profile.span;
  p_commit : Obs_profile.span;
}

let never = max_int

(* Why dispatch stopped short of its width on a cycle. *)
type dispatch_block =
  | Blk_none
  | Blk_width  (* per-cluster steer bandwidth exhausted this cycle *)
  | Blk_empty
  | Blk_rob
  | Blk_lsq
  | Blk_reg  (* destination register file exhausted in the target cluster *)
  | Blk_policy
  | Blk_iq
  | Blk_copyq

(* [annot], [policy], [frontend_depth] and [view] are mutable so the
   harness can {!reset} an engine to run a different configuration on
   the same preallocated machine state — per-domain engine reuse is
   what keeps the parallel sweep's allocation rate (and with it the
   stop-the-world minor-GC frequency) down. *)
type t = {
  cfg : Config.t;
  mutable annot : Annot.t;
  mutable policy : Policy.t;
  mutable frontend_depth : int;
      (* fetch-to-dispatch + serialized-steer stages *)
  stats : Stats.t;
  memsys : Memsys.t;
  bpred : Bpred.t;
  tcache : Tracecache.t;
  (* time *)
  mutable cycle : int;
  mutable next_iseq : int;
  (* static id -> static micro-op, filled by fetch ([no_uop] = not seen
     since create/reset) *)
  mutable uops : Uop.t array;
  (* front-end: the fetch queue, one head/length index over three int
     columns (static id, address, dispatch-ready cycle lsl 1 lor
     mispredicted) *)
  fq_sid : int array;
  fq_addr : int array;
  fq_meta : int array;
  mutable fq_head : int;
  mutable fq_len : int;
  mutable fetch_resume : int;  (* no fetch before this cycle; [never] while
                                   a mispredicted branch is unresolved *)
  (* rename: architectural register code -> value tag *)
  rename : int array;
  (* per-tag state *)
  tag_loc : Vec.t;  (* cluster mask: where the value is or will be *)
  tag_ready : Vec.t;  (* cluster mask: where the value has been produced *)
  tag_origin : Vec.t;  (* producing cluster *)
  (* in-flight slots: ROB-owned ops, then the copy pool *)
  mutable slots : inst array;
  rob_size : int;
  mutable rob_head : int;
  mutable rob_len : int;
  mutable copy_free : int array;  (* stack of free copy slot ids *)
  mutable copy_free_len : int;
  (* wakeup table: (tag, cluster) key -> waiting nodes, chained *)
  waiter_heads : int array;
  mutable node_key : int array;
  mutable node_next : int array;
  (* 8-byte-aligned address -> youngest uncommitted store, chained *)
  store_heads : int array;
  (* back-end *)
  occupancy : int array array;  (* cluster -> queue index -> used slots *)
  inflight : int array;  (* cluster -> dispatched, not yet completed *)
  ready_q : Pqueue.t array array;  (* cluster -> queue index -> ready entries *)
  unit_free : int array array;  (* cluster -> fu index -> next free cycle *)
  fabric : Clusteer_topo.Fabric.t;  (* per-link next-free-cycle state *)
  mutable lsq_used : int;
  regs_used : int array array;  (* cluster -> class (0 int, 1 fp) -> live dests *)
  mutable misses_outstanding : int;  (* in-flight L1 misses (MSHR usage) *)
  events : Wheel.t;  (* due cycle -> slot id and event kind *)
  (* per-cycle port counters *)
  mutable loads_this_cycle : int;
  mutable stores_this_cycle : int;
  mutable view : Policy.view;
  (* per-cycle scratch, reused so the per-uop and per-cycle paths
     allocate nothing: tags needing copies (deduped), per-source-cluster
     pending-copy counts for the copy-queue capacity check, per-cluster
     dispatches this cycle, and ready slots a structural hazard blocked *)
  mutable copy_tags : int array;
  copy_extra : int array;
  per_cluster : int array;
  mutable blocked : int array;
  (* observability: with [None] every emission site is one pattern
     match and constructs nothing — the simulated behaviour and the
     final statistics are bit-identical to an uninstrumented engine *)
  mutable obs : Obs_sink.t option;
  copyq_depth_hist : Obs_counters.histogram;
  (* self-profiler: like [obs], [None] means every step is one pattern
     match away from the uninstrumented path *)
  prof : prof_spans option;
  (* quiescence gate (see [step]): did anything happen this cycle, the
     first cycle the back-end stages may act again, and the earliest
     cycle a ready entry the issue stage left blocked may start *)
  mutable busy : bool;
  mutable wake : int;
  mutable retry : int;
  (* what stopped dispatch on the last cycle, and the cycles stepped
     one by one since create/reset (the rest were skipped, see
     [skip_quiet]) *)
  mutable blk : dispatch_block;
  mutable steps : int;
  (* a run started since create/reset: the stopping rule and the cycle
     bound of [run] count from a fresh machine, so a second run must
     come after a reset *)
  mutable ran : bool;
}

let queue_index = function
  | Opcode.Int_queue -> 0
  | Opcode.Fp_queue -> 1
  | Opcode.Copy_queue -> 2

let queue_name = function
  | Opcode.Int_queue -> "int"
  | Opcode.Fp_queue -> "fp"
  | Opcode.Copy_queue -> "copy"

let queue_size cfg = function
  | Opcode.Int_queue -> cfg.Config.int_iq_size
  | Opcode.Fp_queue -> cfg.Config.fp_iq_size
  | Opcode.Copy_queue -> cfg.Config.copy_q_size

let queue_width cfg = function
  | Opcode.Int_queue -> cfg.Config.int_issue_width
  | Opcode.Fp_queue -> cfg.Config.fp_issue_width
  | Opcode.Copy_queue -> cfg.Config.copy_issue_width

let fu_index = function
  | Opcode.Fu_alu -> 0
  | Opcode.Fu_imul -> 1
  | Opcode.Fu_fp -> 2
  | Opcode.Fu_copy -> 3

let reg_class (r : Reg.t) =
  match r.Reg.cls with Reg.Int_class -> 0 | Reg.Fp_class -> 1

let reg_code cfg_nregs (r : Reg.t) = Reg.encode ~nregs_per_class:cfg_nregs r

(* The engine supports any register budget; the rename table is sized
   for the largest budget the workloads use. *)
let max_nregs_per_class = 64

(* Initial architectural values live in every cluster: machine state
   that predates the trace is assumed resident everywhere. *)
let seed_rename ~rename ~tag_loc ~tag_ready ~tag_origin ~all_mask =
  Array.iteri
    (fun code _ ->
      let tag = Vec.push tag_loc all_mask in
      ignore (Vec.push tag_ready all_mask);
      ignore (Vec.push tag_origin 0);
      rename.(code) <- tag)
    rename

(* The policy's read-only window into the machine. Rebuilt on
   {!reset} because it carries the (new) annotation; the closures
   always read through [t], so the rebuild is about the [annot] field
   only. *)
let make_view t =
  {
    Policy.clusters = t.cfg.Config.clusters;
    cycle = (fun () -> t.cycle);
    inflight = (fun c -> t.inflight.(c));
    queue_free =
      (fun c q -> queue_size t.cfg q - t.occupancy.(c).(queue_index q));
    src_locations_into =
      (fun u buf ->
        let srcs = u.Uop.srcs in
        let n = Array.length srcs in
        for i = 0 to n - 1 do
          let tag = t.rename.(reg_code max_nregs_per_class srcs.(i)) in
          buf.(i) <- Bitset.of_mask (Vec.get t.tag_loc tag)
        done;
        n);
    reg_location =
      (fun r ->
        let tag = t.rename.(reg_code max_nregs_per_class r) in
        Bitset.of_mask (Vec.get t.tag_loc tag));
    annot = t.annot;
  }

(* Policies using the serialized dependence-check/vote hardware pay
   the extra decode stages of 2.1. *)
let frontend_depth_of config (policy : Policy.t) =
  config.Config.fetch_to_dispatch
  +
  if policy.Policy.uses_vote_unit then config.Config.steer_serial_stages else 0

(* Every copy slot back on the free stack, lowest id on top. *)
let free_all_copies t =
  let n = Array.length t.slots - t.rob_size in
  for i = 0 to n - 1 do
    t.copy_free.(i) <- t.rob_size + n - 1 - i
  done;
  t.copy_free_len <- n

(* Filler for static ids not seen since create/reset. *)
let no_uop =
  {
    Uop.id = -1;
    opcode = Opcode.Int_alu;
    dst = None;
    srcs = [||];
    stream = -1;
    branch_ref = -1;
  }

(* The static-id table starts at the annotation's uop count; fetch
   grows it for an id beyond that. *)
let uop_table annot = Array.make (Array.length annot.Annot.vc_of) no_uop

let create ~config ~annot ~policy ?(prewarm = []) ?obs ?registry ?profile () =
  Config.validate config;
  let clusters = config.Config.clusters in
  let stats = Stats.create ~clusters in
  let tag_loc = Vec.create ~default:0 () in
  let tag_ready = Vec.create ~default:0 () in
  let tag_origin = Vec.create ~default:0 () in
  let rename = Array.make (2 * max_nregs_per_class) (-1) in
  let all_mask = (Bitset.full clusters :> int) in
  seed_rename ~rename ~tag_loc ~tag_ready ~tag_origin ~all_mask;
  let rob_size = config.Config.rob_size in
  (* Room for every copy queue full, and as many again in transit; the
     pool grows if a fabric keeps more in flight. *)
  let copy_slots = 2 * clusters * config.Config.copy_q_size in
  let nslots = rob_size + copy_slots in
  check_slot_count nslots;
  let fetch_capacity =
    config.Config.fetch_width * (config.Config.fetch_to_dispatch + 2)
  in
  let t =
    {
      cfg = config;
      annot;
      policy;
      frontend_depth = frontend_depth_of config policy;
      stats;
      memsys = Memsys.create ~prewarm config;
      bpred = Bpred.create ~bits:config.Config.bpred_bits;
      tcache =
        Tracecache.create ~size_uops:config.Config.tc_size_uops
          ~line_uops:config.Config.tc_line_uops ~ways:config.Config.tc_ways;
      cycle = 0;
      next_iseq = 0;
      uops = uop_table annot;
      fq_sid = Array.make fetch_capacity 0;
      fq_addr = Array.make fetch_capacity 0;
      fq_meta = Array.make fetch_capacity 0;
      fq_head = 0;
      fq_len = 0;
      fetch_resume = 0;
      rename;
      tag_loc;
      tag_ready;
      tag_origin;
      slots = Array.init nslots fresh_inst;
      rob_size;
      rob_head = 0;
      rob_len = 0;
      copy_free = Array.make copy_slots 0;
      copy_free_len = 0;
      waiter_heads = Array.make waiter_buckets (-1);
      node_key = Array.make (max_srcs * nslots) (-1);
      node_next = Array.make (max_srcs * nslots) (-1);
      store_heads = Array.make store_buckets (-1);
      occupancy = Array.init clusters (fun _ -> Array.make 3 0);
      inflight = Array.make clusters 0;
      ready_q =
        Array.init clusters (fun _ -> Array.init 3 (fun _ -> Pqueue.create ()));
      unit_free = Array.init clusters (fun _ -> Array.make 4 0);
      fabric = Clusteer_topo.Fabric.create config.Config.topology;
      lsq_used = 0;
      regs_used = Array.init clusters (fun _ -> Array.make 2 0);
      misses_outstanding = 0;
      events = Wheel.create ();
      loads_this_cycle = 0;
      stores_this_cycle = 0;
      copy_tags = Array.make 8 (-1);
      copy_extra = Array.make clusters 0;
      per_cluster = Array.make clusters 0;
      blocked = Array.make 16 0;
      obs;
      copyq_depth_hist = Obs_counters.histogram ?registry "engine.copyq_depth";
      prof =
        (match profile with
        | None -> None
        | Some p ->
            Some
              {
                p_fetch = Obs_profile.span p "engine.fetch";
                p_dispatch = Obs_profile.span p "engine.dispatch";
                p_issue = Obs_profile.span p "engine.issue";
                p_writeback = Obs_profile.span p "engine.writeback";
                p_commit = Obs_profile.span p "engine.commit";
              });
      busy = false;
      wake = 0;
      retry = never;
      blk = Blk_none;
      steps = 0;
      ran = false;
      (* Placeholder, replaced right below: the real view's closures
         need [t] itself. *)
      view =
        {
          Policy.clusters;
          cycle = (fun () -> 0);
          inflight = (fun _ -> 0);
          queue_free = (fun _ _ -> 0);
          src_locations_into = (fun _ _ -> 0);
          reg_location = (fun _ -> Bitset.of_mask 0);
          annot;
        };
    }
  in
  free_all_copies t;
  t.view <- make_view t;
  t

let reset ?(prewarm = []) ?obs t ~annot ~policy =
  t.annot <- annot;
  t.policy <- policy;
  t.frontend_depth <- frontend_depth_of t.cfg policy;
  Stats.reset t.stats;
  Memsys.reset ~prewarm t.memsys;
  Bpred.reset t.bpred;
  Tracecache.reset t.tcache;
  t.cycle <- 0;
  t.next_iseq <- 0;
  if Array.length t.uops = Array.length annot.Annot.vc_of then
    Array.fill t.uops 0 (Array.length t.uops) no_uop
  else t.uops <- uop_table annot;
  t.fq_head <- 0;
  t.fq_len <- 0;
  t.fetch_resume <- 0;
  Vec.clear t.tag_loc;
  Vec.clear t.tag_ready;
  Vec.clear t.tag_origin;
  let all_mask = (Bitset.full t.cfg.Config.clusters :> int) in
  seed_rename ~rename:t.rename ~tag_loc:t.tag_loc ~tag_ready:t.tag_ready
    ~tag_origin:t.tag_origin ~all_mask;
  t.rob_head <- 0;
  t.rob_len <- 0;
  free_all_copies t;
  Array.fill t.waiter_heads 0 waiter_buckets (-1);
  Array.fill t.store_heads 0 store_buckets (-1);
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.occupancy;
  Array.fill t.inflight 0 (Array.length t.inflight) 0;
  Array.iter (fun qs -> Array.iter Pqueue.clear qs) t.ready_q;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.unit_free;
  Clusteer_topo.Fabric.reset t.fabric;
  t.lsq_used <- 0;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.regs_used;
  t.misses_outstanding <- 0;
  Wheel.clear t.events;
  t.loads_this_cycle <- 0;
  t.stores_this_cycle <- 0;
  t.busy <- false;
  t.wake <- 0;
  t.retry <- never;
  t.blk <- Blk_none;
  t.steps <- 0;
  t.ran <- false;
  t.obs <- obs;
  t.view <- make_view t

let stats t = t.stats

(* Events are stamped in measured time (1-based cycle index of the
   statistics), not the engine's internal clock: the internal clock
   keeps counting through the warmup reset, measured time restarts —
   and the trace must line up with the interval samples and the final
   statistics. *)
let now t = t.stats.Stats.cycles + 1

(* ---- slots ------------------------------------------------------- *)

let is_copy t inst = inst.id >= t.rob_size

(* Double the copy pool. Only a run that keeps more copies in flight
   than any before it on this engine gets here. *)
let grow_copy_pool t =
  let old = Array.length t.slots in
  let extra = old - t.rob_size in
  check_slot_count (old + extra);
  let slots =
    Array.init (old + extra) (fun i ->
        if i < old then t.slots.(i) else fresh_inst i)
  in
  let extend a =
    let b = Array.make (max_srcs * (old + extra)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.node_key <- extend t.node_key;
  t.node_next <- extend t.node_next;
  t.slots <- slots;
  let free = Array.make (2 * extra) 0 in
  Array.blit t.copy_free 0 free 0 t.copy_free_len;
  for i = old + extra - 1 downto old do
    free.(t.copy_free_len) <- i;
    t.copy_free_len <- t.copy_free_len + 1
  done;
  t.copy_free <- free

let alloc_copy t =
  if t.copy_free_len = 0 then grow_copy_pool t;
  t.copy_free_len <- t.copy_free_len - 1;
  t.slots.(t.copy_free.(t.copy_free_len))

(* A copy's two events (arrival, completion) may fire in either order;
   the slot returns to the pool after the second. *)
let release_copy_event t inst =
  inst.events_left <- inst.events_left - 1;
  if inst.events_left = 0 then begin
    t.copy_free.(t.copy_free_len) <- inst.id;
    t.copy_free_len <- t.copy_free_len + 1
  end

(* ---- tag / wakeup machinery ------------------------------------- *)

let waiter_key t tag cluster = (tag * t.cfg.Config.clusters) + cluster

let enqueue_ready t inst =
  Pqueue.add t.ready_q.(inst.cluster).(inst.qidx) (ready_entry inst)

let add_waiter t inst ~node tag cluster =
  inst.waiting <- inst.waiting + 1;
  let key = waiter_key t tag cluster in
  let b = key land (waiter_buckets - 1) in
  t.node_key.(node) <- key;
  t.node_next.(node) <- t.waiter_heads.(b);
  t.waiter_heads.(b) <- node

let wake t inst =
  inst.waiting <- inst.waiting - 1;
  if inst.waiting = 0 then enqueue_ready t inst

(* Mark [tag] produced in [cluster] and wake everything waiting for it
   there: unlink the key's nodes from its bucket chain. *)
let broadcast t tag cluster =
  Vec.set t.tag_ready tag (Vec.get t.tag_ready tag lor (1 lsl cluster));
  let key = waiter_key t tag cluster in
  let b = key land (waiter_buckets - 1) in
  let prev = ref (-1) and node = ref t.waiter_heads.(b) in
  while !node >= 0 do
    let n = !node in
    let next = t.node_next.(n) in
    if t.node_key.(n) = key then begin
      if !prev < 0 then t.waiter_heads.(b) <- next
      else t.node_next.(!prev) <- next;
      wake t t.slots.(n / max_srcs)
    end
    else prev := n;
    node := next
  done

let tag_ready_in t tag cluster = Vec.get t.tag_ready tag land (1 lsl cluster) <> 0
let tag_located_in t tag cluster = Vec.get t.tag_loc tag land (1 lsl cluster) <> 0

let new_tag t ~cluster =
  let tag = Vec.push t.tag_loc (1 lsl cluster) in
  ignore (Vec.push t.tag_ready 0);
  ignore (Vec.push t.tag_origin cluster);
  tag

(* ---- pending-store table ----------------------------------------- *)

let store_bucket key = (key lsr 3) land (store_buckets - 1)

(* Slot id of the youngest uncommitted store to [key], or -1. *)
let find_store t key =
  let s = ref t.store_heads.(store_bucket key) in
  while !s >= 0 && t.slots.(!s).store_key <> key do
    s := t.slots.(!s).next_store
  done;
  !s

(* Unlink the table entry for [key] if it is [only] (any entry when
   [only] is -1). *)
let unlink_store t key ~only =
  let b = store_bucket key in
  let prev = ref (-1) and s = ref t.store_heads.(b) in
  while !s >= 0 do
    let st = t.slots.(!s) in
    if st.store_key = key then begin
      if only < 0 || only = !s then
        if !prev < 0 then t.store_heads.(b) <- st.next_store
        else t.slots.(!prev).next_store <- st.next_store;
      s := -1
    end
    else begin
      prev := !s;
      s := st.next_store
    end
  done

let record_store t inst key =
  unlink_store t key ~only:(-1);
  let b = store_bucket key in
  inst.store_key <- key;
  inst.next_store <- t.store_heads.(b);
  t.store_heads.(b) <- inst.id

(* ---- events ------------------------------------------------------ *)

let on_complete t inst =
  inst.completed <- true;
  if inst.took_mshr then begin
    inst.took_mshr <- false;
    t.misses_outstanding <- t.misses_outstanding - 1
  end;
  t.inflight.(inst.cluster) <- t.inflight.(inst.cluster) - 1;
  if inst.dst_tag >= 0 then broadcast t inst.dst_tag inst.cluster;
  if is_copy t inst then release_copy_event t inst
  else
    match t.uops.(inst.sid).Uop.opcode with
    | Opcode.Store ->
        let l = ref inst.store_waiters in
        inst.store_waiters <- -1;
        while !l >= 0 do
          let load = t.slots.(!l) in
          l := load.next_store_waiter;
          wake t load
        done
    | Opcode.Branch ->
        if inst.mispredicted then begin
          t.fetch_resume <- t.cycle + t.cfg.Config.redirect_penalty;
          match t.obs with
          | None -> ()
          | Some s ->
              let cycle = now t in
              s.Obs_sink.emit
                (Obs_event.Redirect
                   { cycle; resume = cycle + t.cfg.Config.redirect_penalty })
        end
    | _ -> ()

let on_copy_arrive t inst =
  t.stats.Stats.copies_executed <- t.stats.Stats.copies_executed + 1;
  broadcast t inst.copy_tag inst.copy_to;
  release_copy_event t inst

let process_events t =
  let ev = ref (Wheel.pop_due t.events t.cycle) in
  while !ev >= 0 do
    t.busy <- true;
    let inst = t.slots.(!ev lsr 1) in
    if !ev land 1 = 0 then on_complete t inst else on_copy_arrive t inst;
    ev := Wheel.pop_due t.events t.cycle
  done

(* ---- commit ------------------------------------------------------ *)

(* Micro-op class for the "3+3" dispatch/commit width split: the FP
   pipe handles FP-queue micro-ops, the INT pipe everything else. *)
let is_fp_class (u : Uop.t) =
  match Opcode.queue u.Uop.opcode with
  | Opcode.Fp_queue -> true
  | Opcode.Int_queue | Opcode.Copy_queue -> false

let commit t =
  let budget = ref t.cfg.Config.commit_width in
  let int_budget = ref t.cfg.Config.commit_class_width in
  let fp_budget = ref t.cfg.Config.commit_class_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && t.rob_len > 0 do
    let inst = t.slots.(t.rob_head) in
    if not inst.completed then continue_ := false
    else begin
      let u = t.uops.(inst.sid) in
      let fp = is_fp_class u in
      let is_store =
        match u.Uop.opcode with Opcode.Store -> true | _ -> false
      in
      if (if fp then !fp_budget else !int_budget) <= 0 then continue_ := false
      else if is_store && t.stores_this_cycle >= t.cfg.Config.l1_write_ports
      then continue_ := false
      else begin
        if fp then decr fp_budget else decr int_budget;
        t.rob_head <-
          (if t.rob_head + 1 = t.rob_size then 0 else t.rob_head + 1);
        t.rob_len <- t.rob_len - 1;
        if is_store then begin
          t.stores_this_cycle <- t.stores_this_cycle + 1;
          Memsys.store t.memsys ~addr:inst.addr;
          unlink_store t (inst.addr land lnot 7) ~only:inst.id
        end;
        if Uop.is_mem u then t.lsq_used <- t.lsq_used - 1;
        (match u.Uop.dst with
        | Some dst ->
            let k = reg_class dst in
            t.regs_used.(inst.cluster).(k) <- t.regs_used.(inst.cluster).(k) - 1
        | None -> ());
        t.stats.Stats.committed <- t.stats.Stats.committed + 1;
        t.busy <- true;
        (match t.obs with
        | None -> ()
        | Some s ->
            s.Obs_sink.emit
              (Obs_event.Commit
                 { cycle = now t; iseq = inst.iseq; cluster = inst.cluster }));
        decr budget
      end
    end
  done

(* ---- issue ------------------------------------------------------- *)

(* A ready entry blocked this cycle may start again at [cycle]. *)
let retry_at t cycle = if cycle < t.retry then t.retry <- cycle

(* Interconnect model: the topology's link-occupancy fabric
   ({!Clusteer_topo.Fabric}) decides which links a transfer occupies
   and how long it travels. A refused reservation (any link on the
   deterministic route busy at its slot) leaves the copy in the queue
   to retry next cycle — link backpressure becomes copy-queue
   pressure upstream. On point-to-point and bus this is bit-identical
   to the historical [link_free] matrix. *)
let try_start_copy t inst =
  let from = inst.cluster and to_cluster = inst.copy_to in
  let latency =
    Clusteer_topo.Fabric.try_transfer t.fabric ~now:t.cycle ~from
      ~to_:to_cluster
  in
  if latency < 0 then begin
    retry_at t (t.cycle + 1);
    false
  end
  else begin
    t.stats.Stats.link_transfers <- t.stats.Stats.link_transfers + 1;
    (match t.obs with
    | None -> ()
    | Some s ->
        s.Obs_sink.emit
          (Obs_event.Link_transfer
             { cycle = now t; from_cluster = from; to_cluster; latency }));
    inst.events_left <- 2;
    Wheel.add t.events ~due:(t.cycle + latency) (ev_copy_arrive inst.id);
    (* The copy has left the copy queue; completion frees the
       in-flight counter. *)
    Wheel.add t.events ~due:(t.cycle + 1) (ev_complete inst.id);
    true
  end

let try_start_op t inst =
  let op = t.uops.(inst.sid).Uop.opcode in
  let is_load = match op with Opcode.Load -> true | _ -> false in
  if is_load && t.loads_this_cycle >= t.cfg.Config.l1_read_ports then begin
    retry_at t (t.cycle + 1);
    false
  end
  else begin
    (* MSHR check: a load that will miss the L1 needs a free miss
       register; without one it retries next cycle. Only a completion
       event frees one, so it sets no retry cycle. *)
    let needs_mshr =
      is_load && not (Memsys.l1_resident t.memsys ~addr:inst.addr)
    in
    if needs_mshr && t.misses_outstanding >= t.cfg.Config.mshrs then false
    else
      let fu = fu_index (Opcode.fu op) in
      if (not (Opcode.pipelined op)) && t.unit_free.(inst.cluster).(fu) > t.cycle
      then begin
        retry_at t t.unit_free.(inst.cluster).(fu);
        false
      end
      else begin
        if is_load then t.loads_this_cycle <- t.loads_this_cycle + 1;
        if needs_mshr then begin
          inst.took_mshr <- true;
          t.misses_outstanding <- t.misses_outstanding + 1
        end;
        let lat =
          if is_load then
            Opcode.latency Opcode.Load
            + Memsys.load_latency t.memsys ~addr:inst.addr
          else Opcode.latency op
        in
        if not (Opcode.pipelined op) then
          t.unit_free.(inst.cluster).(fu) <- t.cycle + lat;
        Wheel.add t.events ~due:(t.cycle + lat) (ev_complete inst.id);
        true
      end
  end

(* Try to start one ready instruction; returns [true] on success,
   [false] when a structural hazard blocks it this cycle. *)
let try_start t inst =
  if is_copy t inst then try_start_copy t inst else try_start_op t inst

(* Age-ordered select: start up to [width] of the oldest ready
   entries; the ones a hazard blocked go back for the next cycle. *)
let issue_queue t cluster qidx queue =
  let width = queue_width t.cfg queue in
  let q = t.ready_q.(cluster).(qidx) in
  let nblocked = ref 0 in
  let started = ref 0 in
  while !started < width && not (Pqueue.is_empty q) do
    let entry = Pqueue.pop_min q in
    let inst = t.slots.(entry land slot_mask) in
    if try_start t inst then begin
      t.occupancy.(cluster).(qidx) <- t.occupancy.(cluster).(qidx) - 1;
      t.busy <- true;
      incr started
    end
    else begin
      if !nblocked = Array.length t.blocked then begin
        let b = Array.make (2 * !nblocked) 0 in
        Array.blit t.blocked 0 b 0 !nblocked;
        t.blocked <- b
      end;
      t.blocked.(!nblocked) <- entry;
      incr nblocked
    end
  done;
  for i = !nblocked - 1 downto 0 do
    Pqueue.add q t.blocked.(i)
  done

let issue t =
  for c = 0 to t.cfg.Config.clusters - 1 do
    issue_queue t c 2 Opcode.Copy_queue;
    issue_queue t c 0 Opcode.Int_queue;
    issue_queue t c 1 Opcode.Fp_queue
  done

(* ---- dispatch ---------------------------------------------------- *)

let fresh_iseq t =
  let s = t.next_iseq in
  t.next_iseq <- s + 1;
  s

let src_tag t (r : Reg.t) = t.rename.(reg_code max_nregs_per_class r)

(* Copies needed to bring every source of [u] to [cluster]: fills
   [t.copy_tags] with the deduplicated tags whose location mask misses
   the target cluster and returns their count. Scratch-based (no list,
   no allocation): micro-ops have at most a handful of sources, so the
   quadratic dedup scan is cheaper than any set structure. *)
let copies_needed t (u : Uop.t) cluster =
  let srcs = u.Uop.srcs in
  let nsrcs = Array.length srcs in
  if nsrcs > Array.length t.copy_tags then
    t.copy_tags <- Array.make nsrcs (-1);
  let n = ref 0 in
  for i = 0 to nsrcs - 1 do
    let tag = src_tag t srcs.(i) in
    if not (tag_located_in t tag cluster) then begin
      let dup = ref false in
      for j = 0 to !n - 1 do
        if t.copy_tags.(j) = tag then dup := true
      done;
      if not !dup then begin
        t.copy_tags.(!n) <- tag;
        incr n
      end
    end
  done;
  !n

let insert_copy t tag ~to_cluster =
  let from = Vec.get t.tag_origin tag in
  let inst = alloc_copy t in
  inst.iseq <- fresh_iseq t;
  inst.cluster <- from;
  inst.qidx <- queue_index Opcode.Copy_queue;
  inst.dst_tag <- -1;
  inst.waiting <- 0;
  inst.completed <- false;
  inst.took_mshr <- false;
  inst.copy_to <- to_cluster;
  inst.copy_tag <- tag;
  inst.events_left <- 0;
  t.occupancy.(from).(2) <- t.occupancy.(from).(2) + 1;
  t.inflight.(from) <- t.inflight.(from) + 1;
  Vec.set t.tag_loc tag (Vec.get t.tag_loc tag lor (1 lsl to_cluster));
  t.stats.Stats.copies_generated <- t.stats.Stats.copies_generated + 1;
  (match t.obs with
  | None -> ()
  | Some s ->
      let depth = t.occupancy.(from).(2) in
      Obs_counters.observe t.copyq_depth_hist depth;
      s.Obs_sink.emit
        (Obs_event.Copy_insert
           {
             cycle = now t;
             tag;
             from_cluster = from;
             to_cluster;
             copyq_depth = depth;
           }));
  if tag_ready_in t tag from then enqueue_ready t inst
  else add_waiter t inst ~node:(max_srcs * inst.id) tag from

(* Fill the next ROB slot with [u] at [addr], dispatched to [cluster]. *)
let dispatch_into_rob t u ~addr ~cluster ~misp =
  let srcs = u.Uop.srcs in
  let nsrcs = Array.length srcs in
  (* Rename sources before the destination: a micro-op may read the
     register it writes. *)
  let tag0 = if nsrcs > 0 then src_tag t srcs.(0) else -1 in
  let tag1 = if nsrcs > 1 then src_tag t srcs.(1) else -1 in
  let dst_tag =
    match u.Uop.dst with
    | Some dst ->
        let tag = new_tag t ~cluster in
        t.rename.(reg_code max_nregs_per_class dst) <- tag;
        let k = reg_class dst in
        t.regs_used.(cluster).(k) <- t.regs_used.(cluster).(k) + 1;
        tag
    | None -> -1
  in
  let pos = t.rob_head + t.rob_len in
  let inst =
    t.slots.(if pos >= t.rob_size then pos - t.rob_size else pos)
  in
  t.rob_len <- t.rob_len + 1;
  inst.iseq <- fresh_iseq t;
  inst.cluster <- cluster;
  inst.qidx <- queue_index (Opcode.queue u.Uop.opcode);
  inst.dst_tag <- dst_tag;
  inst.waiting <- 0;
  inst.completed <- false;
  inst.took_mshr <- false;
  inst.mispredicted <- misp;
  inst.sid <- u.Uop.id;
  inst.addr <- addr;
  inst.store_waiters <- -1;
  (* Wait for each source's readiness in [cluster]. *)
  if tag0 >= 0 && not (tag_ready_in t tag0 cluster) then
    add_waiter t inst ~node:(max_srcs * inst.id) tag0 cluster;
  if tag1 >= 0 && not (tag_ready_in t tag1 cluster) then
    add_waiter t inst ~node:((max_srcs * inst.id) + 1) tag1 cluster;
  inst

let dispatch_one t =
  let head = t.fq_head in
  let u = t.uops.(t.fq_sid.(head)) in
  (* Structural preconditions outside the clusters. *)
  if t.rob_len = t.rob_size then Blk_rob
  else if Uop.is_mem u && t.lsq_used >= t.cfg.Config.lsq_size then Blk_lsq
  else
    match t.policy.Policy.decide t.view u with
    | Policy.Stall -> Blk_policy
    | Policy.Dispatch_to cluster ->
        if cluster < 0 || cluster >= t.cfg.Config.clusters then
          invalid_arg
            (Printf.sprintf
               "Engine: policy %s steered micro-op %d to invalid cluster %d"
               t.policy.Policy.name u.Uop.id cluster);
        (* The steering decision is observable even when a structural
           hazard then blocks the dispatch: the hardware consults the
           policy again next cycle, and each consult is an event. *)
        (match t.obs with
        | None -> ()
        | Some s ->
            s.Obs_sink.emit
              (Obs_event.Steer
                 {
                   cycle = now t;
                   static_id = u.Uop.id;
                   cluster;
                   inflight = Array.copy t.inflight;
                 }));
        if t.per_cluster.(cluster) >= t.cfg.Config.dispatch_per_cluster then
          Blk_width
        else
          let queue = Opcode.queue u.Uop.opcode in
          let qidx = queue_index queue in
          let regfile_full =
            match u.Uop.dst with
            | Some dst ->
                let k = reg_class dst in
                let cap =
                  if k = 0 then t.cfg.Config.int_regfile
                  else t.cfg.Config.fp_regfile
                in
                t.regs_used.(cluster).(k) >= cap
            | None -> false
          in
          if t.occupancy.(cluster).(qidx) >= queue_size t.cfg queue then Blk_iq
          else if regfile_full then Blk_reg
          else begin
            let needed = copies_needed t u cluster in
            (* Copy queue capacity check in every source cluster, using
               the per-cluster scratch counters instead of a fresh
               hashtable per dispatch attempt; only the source clusters'
               counters are read, so only those are zeroed. *)
            for i = 0 to needed - 1 do
              t.copy_extra.(Vec.get t.tag_origin t.copy_tags.(i)) <- 0
            done;
            let fits = ref true in
            for i = 0 to needed - 1 do
              let from = Vec.get t.tag_origin t.copy_tags.(i) in
              if t.occupancy.(from).(2) + t.copy_extra.(from)
                 >= t.cfg.Config.copy_q_size
              then fits := false;
              t.copy_extra.(from) <- t.copy_extra.(from) + 1
            done;
            if not !fits then Blk_copyq
            else begin
              for i = 0 to needed - 1 do
                insert_copy t t.copy_tags.(i) ~to_cluster:cluster
              done;
              let inst =
                dispatch_into_rob t u ~addr:t.fq_addr.(head) ~cluster
                  ~misp:(t.fq_meta.(head) land 1 = 1)
              in
              (* Memory bookkeeping: LSQ slot, store table, store-to-load
                 dependences through the unified LSQ (exact 8-byte
                 disambiguation; forwarding needs no inter-cluster copy). *)
              if Uop.is_mem u then begin
                t.lsq_used <- t.lsq_used + 1;
                let key = t.fq_addr.(head) land lnot 7 in
                match u.Uop.opcode with
                | Opcode.Store ->
                    record_store t inst key;
                    t.stats.Stats.stores <- t.stats.Stats.stores + 1
                | Opcode.Load ->
                    t.stats.Stats.loads <- t.stats.Stats.loads + 1;
                    let s = find_store t key in
                    if s >= 0 && not t.slots.(s).completed then begin
                      let store = t.slots.(s) in
                      inst.waiting <- inst.waiting + 1;
                      inst.next_store_waiter <- store.store_waiters;
                      store.store_waiters <- inst.id
                    end
                | _ -> ()
              end;
              t.occupancy.(cluster).(qidx) <- t.occupancy.(cluster).(qidx) + 1;
              t.inflight.(cluster) <- t.inflight.(cluster) + 1;
              t.per_cluster.(cluster) <- t.per_cluster.(cluster) + 1;
              t.stats.Stats.dispatched <- t.stats.Stats.dispatched + 1;
              t.stats.Stats.per_cluster_dispatched.(cluster) <-
                t.stats.Stats.per_cluster_dispatched.(cluster) + 1;
              (match t.obs with
              | None -> ()
              | Some s ->
                  s.Obs_sink.emit
                    (Obs_event.Dispatch
                       {
                         cycle = now t;
                         iseq = inst.iseq;
                         static_id = u.Uop.id;
                         cluster;
                         queue = queue_name queue;
                       }));
              if inst.waiting = 0 then enqueue_ready t inst;
              Blk_none
            end
          end

(* Charge [n] cycles of the stall [blk] attributes. *)
let charge_stall s blk n =
  match blk with
  | Blk_none | Blk_width -> ()
  | Blk_empty -> s.Stats.stall_empty <- s.Stats.stall_empty + n
  | Blk_rob -> s.Stats.stall_rob_full <- s.Stats.stall_rob_full + n
  | Blk_lsq -> s.Stats.stall_lsq_full <- s.Stats.stall_lsq_full + n
  | Blk_reg -> s.Stats.stall_regfile <- s.Stats.stall_regfile + n
  | Blk_policy -> s.Stats.stall_policy <- s.Stats.stall_policy + n
  | Blk_iq -> s.Stats.stall_iq_full <- s.Stats.stall_iq_full + n
  | Blk_copyq -> s.Stats.stall_copyq_full <- s.Stats.stall_copyq_full + n

let stall_reason = function
  | Blk_none | Blk_width -> None
  | Blk_empty -> Some Obs_event.Empty
  | Blk_rob -> Some Obs_event.Rob_full
  | Blk_lsq -> Some Obs_event.Lsq_full
  | Blk_reg -> Some Obs_event.Regfile
  | Blk_policy -> Some Obs_event.Policy
  | Blk_iq -> Some Obs_event.Iq_full
  | Blk_copyq -> Some Obs_event.Copyq_full

let dispatch t =
  let budget = ref t.cfg.Config.dispatch_width in
  (* "3+3": the steer stage can deliver at most [dispatch_per_cluster]
     micro-ops into any one cluster per cycle. *)
  for c = 0 to Array.length t.per_cluster - 1 do
    t.per_cluster.(c) <- 0
  done;
  let block = ref Blk_none in
  let width_exhausted = ref false in
  while (not !width_exhausted) && !block = Blk_none && !budget > 0 do
    if t.fq_len = 0 || t.fq_meta.(t.fq_head) lsr 1 > t.cycle then
      block := Blk_empty
    else
      match dispatch_one t with
      | Blk_none ->
          t.busy <- true;
          t.fq_head <-
            (if t.fq_head + 1 = Array.length t.fq_sid then 0
             else t.fq_head + 1);
          t.fq_len <- t.fq_len - 1;
          decr budget
      | Blk_width ->
          (* width limit of the target cluster's steer port, not an
             allocation stall *)
          width_exhausted := true
      | blk -> block := blk
  done;
  t.blk <- !block;
  (* Attribute at most one stall reason per cycle, and only when the
     dispatch stage did not fill its full width. *)
  if !budget > 0 then begin
    charge_stall t.stats !block 1;
    match t.obs with
    | None -> ()
    | Some sink -> (
        match stall_reason !block with
        | Some reason ->
            sink.Obs_sink.emit (Obs_event.Stall { cycle = now t; reason })
        | None -> ())
  end

(* ---- fetch ------------------------------------------------------- *)

(* The static id of [u], after recording [u] in the static-id table.
   Each id is resolved once per create/reset: a later micro-op under a
   known id must be that same micro-op, or the table would hand stale
   opcodes and operands to every stage that reads it. *)
let resolve t (u : Uop.t) =
  let id = u.Uop.id in
  if id >= Array.length t.uops then begin
    if id < 0 then
      invalid_arg (Printf.sprintf "Engine: negative static id %d" id);
    let uops = Array.make (2 * (id + 1)) no_uop in
    Array.blit t.uops 0 uops 0 (Array.length t.uops);
    t.uops <- uops
  end;
  let known = t.uops.(id) in
  if known != u then
    if known == no_uop then begin
      if Array.length u.Uop.srcs > max_srcs then
        invalid_arg
          (Printf.sprintf "Engine: micro-op %d has more than %d sources" id
             max_srcs);
      t.uops.(id) <- u
    end
    else if known <> u then
      invalid_arg
        (Printf.sprintf "Engine: static id %d names two different micro-ops"
           id);
  id

let fetch t ~source =
  if t.cycle >= t.fetch_resume then begin
    let budget = ref t.cfg.Config.fetch_width in
    let blocked = ref false in
    let capacity = Array.length t.fq_sid in
    while (not !blocked) && !budget > 0 && t.fq_len < capacity do
      let duop = source () in
      t.busy <- true;
      let sid = resolve t duop.Dynuop.suop in
      let misp =
        if Uop.is_branch duop.Dynuop.suop then begin
          let taken = duop.Dynuop.taken in
          let predicted = Bpred.predict t.bpred ~pc:sid in
          Bpred.update t.bpred ~pc:sid ~taken;
          predicted <> taken
        end
        else false
      in
      (* Trace cache: a miss charges the line-rebuild penalty and stops
         fetch for the rest of the miss window. *)
      let tc_hit = Tracecache.lookup t.tcache ~static_id:sid in
      if tc_hit then t.stats.Stats.tc_hits <- t.stats.Stats.tc_hits + 1
      else t.stats.Stats.tc_misses <- t.stats.Stats.tc_misses + 1;
      let tc_extra = if tc_hit then 0 else t.cfg.Config.tc_miss_penalty in
      let tail =
        let i = t.fq_head + t.fq_len in
        if i >= capacity then i - capacity else i
      in
      t.fq_sid.(tail) <- sid;
      t.fq_addr.(tail) <- duop.Dynuop.addr;
      t.fq_meta.(tail) <-
        ((t.cycle + tc_extra + t.frontend_depth) lsl 1)
        lor if misp then 1 else 0;
      t.fq_len <- t.fq_len + 1;
      decr budget;
      if misp then begin
        (* Trace-driven wrong-path model: stop fetching until the
           branch resolves. *)
        t.fetch_resume <- never;
        blocked := true
      end
      else if not tc_hit then begin
        t.fetch_resume <- t.cycle + tc_extra;
        blocked := true
      end
    done
  end

(* ---- main loop --------------------------------------------------- *)

(* Events, commit and issue. Each phase is bracketed by its profiler
   span when profiling; a span accumulates across the whole run and is
   flushed once in [run], so the histogram holds per-run phase totals. *)
let back_end t =
  t.retry <- never;
  match t.prof with
  | None ->
      process_events t;
      t.loads_this_cycle <- 0;
      t.stores_this_cycle <- 0;
      commit t;
      issue t
  | Some p ->
      Obs_profile.enter p.p_writeback;
      process_events t;
      Obs_profile.leave p.p_writeback;
      t.loads_this_cycle <- 0;
      t.stores_this_cycle <- 0;
      Obs_profile.enter p.p_commit;
      commit t;
      Obs_profile.leave p.p_commit;
      Obs_profile.enter p.p_issue;
      issue t;
      Obs_profile.leave p.p_issue

let front_end t ~source =
  match t.prof with
  | None ->
      dispatch t;
      fetch t ~source
  | Some p ->
      Obs_profile.enter p.p_dispatch;
      dispatch t;
      Obs_profile.leave p.p_dispatch;
      Obs_profile.enter p.p_fetch;
      fetch t ~source;
      Obs_profile.leave p.p_fetch

(* The quiescence gate. A cycle is busy when an event fires, a micro-op
   commits or starts, dispatch places a micro-op or fetch reads the
   source. After a quiet cycle nothing the back-end stages read can
   change until [wake]: the next event, or the earliest retry cycle of
   a ready entry issue left blocked (see [retry_at]). Until then the
   back-end is skipped, as it would do nothing. Dispatch and fetch run
   on every cycle that is stepped, so every policy consult and stall
   attribution happens exactly as before; any dispatch or fetch reopens
   the gate. [skip_quiet] then skips the stepped cycles that would only
   repeat a quiet one. *)
let step t ~source =
  let gate_open = t.cycle >= t.wake in
  t.busy <- false;
  if gate_open then back_end t;
  front_end t ~source;
  if t.busy then t.wake <- t.cycle + 1
  else if gate_open then
    t.wake <-
      (let due = Wheel.next_due t.events in
       if due < t.retry then due else t.retry);
  t.cycle <- t.cycle + 1;
  t.stats.Stats.cycles <- t.stats.Stats.cycles + 1;
  (* Interval telemetry: snapshot on measured-time boundaries so the
     series restarts cleanly when the warmup reset zeroes the stats. *)
  match t.obs with
  | Some s
    when s.Obs_sink.interval > 0
         && t.stats.Stats.cycles mod s.Obs_sink.interval = 0 ->
      s.Obs_sink.on_snapshot (Stats.snapshot t.stats)
  | Some _ | None -> ()

(* Skipping quiet cycles. After a quiet cycle whose gate stays closed
   for the next one, each cycle up to the horizon repeats it: the
   back-end is skipped, dispatch blocks on the same head for the same
   reason and fetch stays idle. The horizon is the first cycle on which
   something can change: [wake], the cycle fetch may resume (when the
   fetch queue has room), the cycle the head becomes dispatch-ready
   (when dispatch found it not ready), or the one after [bound], so a
   machine that cannot progress still fails at the bound. The engine
   jumps there and charges the skipped cycles in bulk, to the cycle
   count and to the stall each would attribute. A block that consulted
   the policy is skipped only if the policy's [repeat] charges the
   skipped consults. Interval snapshots and events are per cycle, so
   nothing is skipped while a sink is installed. *)
let skip_quiet t ~bound =
  let next = t.cycle in
  if (not t.busy) && next < t.wake && t.obs == None then begin
    let h = t.wake in
    let h =
      if t.fq_len < Array.length t.fq_sid && t.fetch_resume < h then
        t.fetch_resume
      else h
    in
    let h =
      match t.blk with
      | Blk_empty when t.fq_len > 0 ->
          let ready = t.fq_meta.(t.fq_head) lsr 1 in
          if ready < h then ready else h
      | _ -> h
    in
    let h = if h > bound + 1 then bound + 1 else h in
    let k = h - next in
    if
      k > 0
      &&
      match t.blk with
      | Blk_empty | Blk_rob | Blk_lsq -> true
      | Blk_reg | Blk_policy | Blk_iq | Blk_copyq -> (
          match t.policy.Policy.repeat with
          | None -> false
          | Some repeat -> repeat t.view t.uops.(t.fq_sid.(t.fq_head)) k)
      | Blk_none | Blk_width -> false
    then begin
      t.cycle <- h;
      t.stats.Stats.cycles <- t.stats.Stats.cycles + k;
      charge_stall t.stats t.blk k
    end
  end

(* ---- invariants (test-only) -------------------------------------- *)

(* The ROB head's age, -1 when the ROB is empty. *)
let head_iseq t = if t.rob_len = 0 then -1 else t.slots.(t.rob_head).iseq

(* Occupancy within bounds, [inflight] equal to the live slots, and
   commit in program order, after a step that began with the ROB head
   at [head0] (age [iseq0]) and [committed0] micro-ops committed. *)
let check_invariants t ~head0 ~iseq0 ~committed0 =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failwith (Printf.sprintf "Engine invariant, cycle %d: %s" t.cycle m))
      fmt
  in
  let within what c v hi =
    if v < 0 || v > hi then fail "cluster %d %s = %d outside 0..%d" c what v hi
  in
  let cfg = t.cfg in
  if t.rob_len < 0 || t.rob_len > t.rob_size then
    fail "rob_len = %d outside 0..%d" t.rob_len t.rob_size;
  if t.lsq_used < 0 || t.lsq_used > cfg.Config.lsq_size then
    fail "lsq_used = %d outside 0..%d" t.lsq_used cfg.Config.lsq_size;
  (* Live slots per cluster: uncompleted ROB entries, then uncompleted
     copies, less those on the free stack. *)
  let live = Array.make cfg.Config.clusters 0 in
  let count inst d =
    if not inst.completed then live.(inst.cluster) <- live.(inst.cluster) + d
  in
  for i = 0 to t.rob_len - 1 do
    let inst = t.slots.((t.rob_head + i) mod t.rob_size) in
    if i > 0 && inst.iseq <= t.slots.((t.rob_head + i - 1) mod t.rob_size).iseq
    then fail "ROB entry %d is not younger than the one before it" i;
    count inst 1
  done;
  for id = t.rob_size to Array.length t.slots - 1 do
    count t.slots.(id) 1
  done;
  for i = 0 to t.copy_free_len - 1 do
    count t.slots.(t.copy_free.(i)) (-1)
  done;
  for c = 0 to cfg.Config.clusters - 1 do
    let occ = t.occupancy.(c) in
    within "int queue" c occ.(0) cfg.Config.int_iq_size;
    within "fp queue" c occ.(1) cfg.Config.fp_iq_size;
    within "copy queue" c occ.(2) cfg.Config.copy_q_size;
    within "int registers" c t.regs_used.(c).(0) cfg.Config.int_regfile;
    within "fp registers" c t.regs_used.(c).(1) cfg.Config.fp_regfile;
    if t.inflight.(c) <> live.(c) then
      fail "cluster %d inflight %d, live slots %d" c t.inflight.(c) live.(c)
  done;
  let committed = t.stats.Stats.committed - committed0 in
  if committed < 0 || committed > cfg.Config.commit_width then
    fail "%d micro-ops committed in one step" committed;
  if t.rob_head <> (head0 + committed) mod t.rob_size then
    fail "commit of %d moved the ROB head from %d to %d" committed head0
      t.rob_head;
  let iseq = head_iseq t in
  if iseq >= 0 && iseq0 >= 0 then
    if (committed > 0 && iseq <= iseq0) || (committed = 0 && iseq <> iseq0)
    then fail "ROB head age went from %d to %d" iseq0 iseq

(* ---- runs -------------------------------------------------------- *)

(* [Every_cycle] opens the gate on every cycle and never skips: the
   reference the production loop must match. [Checked] is the
   production loop with {!check_invariants} after every step. *)
type mode = Production | Every_cycle | Checked

let advance t ~source ~mode ~bound =
  t.steps <- t.steps + 1;
  match mode with
  | Production ->
      step t ~source;
      skip_quiet t ~bound
  | Every_cycle ->
      t.wake <- 0;
      step t ~source
  | Checked ->
      let head0 = t.rob_head
      and iseq0 = head_iseq t
      and committed0 = t.stats.Stats.committed in
      step t ~source;
      skip_quiet t ~bound;
      check_invariants t ~head0 ~iseq0 ~committed0

let run_loop ~mode ?(warmup = 0) t ~source ~uops =
  if t.ran then
    invalid_arg "Engine.run: engine already ran; call Engine.reset first";
  if uops <= 0 then invalid_arg "Engine.run: uops must be positive";
  if warmup < 0 then invalid_arg "Engine.run: negative warmup";
  t.ran <- true;
  let max_cycles = ((warmup + uops) * 1000) + 100_000 in
  if warmup > 0 then begin
    (* The sink observes the measured phase only: warmup events would
       share timestamps with post-reset ones and pollute the trace. *)
    let saved_obs = t.obs in
    t.obs <- None;
    while t.stats.Stats.committed < warmup do
      if t.cycle > max_cycles then
        failwith "Engine.run: no forward progress during warmup";
      advance t ~source ~mode ~bound:max_cycles
    done;
    Stats.reset t.stats;
    Memsys.reset_stats t.memsys;
    Bpred.reset_stats t.bpred;
    t.obs <- saved_obs
  end;
  while t.stats.Stats.committed < uops do
    if t.cycle > max_cycles then
      failwith "Engine.run: no forward progress (cycle bound exceeded)";
    advance t ~source ~mode ~bound:max_cycles
  done;
  (* Fold memory / branch counters into the run statistics. *)
  t.stats.Stats.l1_hits <- Memsys.l1_hits t.memsys;
  t.stats.Stats.l1_misses <- Memsys.l1_misses t.memsys;
  t.stats.Stats.l2_hits <- Memsys.l2_hits t.memsys;
  t.stats.Stats.l2_misses <- Memsys.l2_misses t.memsys;
  t.stats.Stats.branch_lookups <- Bpred.lookups t.bpred;
  t.stats.Stats.branch_mispredicts <- Bpred.mispredicts t.bpred;
  (* One histogram observation per phase per run. Only this engine's
     own spans are flushed — the profiler may be shared with the
     harness or service layer. *)
  (match t.prof with
  | None -> ()
  | Some p ->
      Obs_profile.flush p.p_fetch;
      Obs_profile.flush p.p_dispatch;
      Obs_profile.flush p.p_issue;
      Obs_profile.flush p.p_writeback;
      Obs_profile.flush p.p_commit);
  t.stats

let run ?warmup t ~source ~uops =
  run_loop ~mode:Production ?warmup t ~source ~uops

module For_testing = struct
  let run_every_cycle ?warmup t ~source ~uops =
    run_loop ~mode:Every_cycle ?warmup t ~source ~uops

  let run_checked ?warmup t ~source ~uops =
    run_loop ~mode:Checked ?warmup t ~source ~uops

  let steps t = t.steps
  let clock t = t.cycle
end
