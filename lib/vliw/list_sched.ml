open Clusteer_ddg

type state = {
  machine : Machine.t;
  g : Ddg.t;
  res : Schedule.reservation;
  entries : Schedule.entry option array;
  avail : int array array;  (* node -> cluster -> ready cycle, -1 unknown *)
  assigned_ops : int array;  (* per cluster, for tie-breaking *)
  mutable moves : int;
}

let make_state machine g =
  {
    machine;
    g;
    res = Schedule.create_reservation machine;
    entries = Array.make (Ddg.node_count g) None;
    avail =
      Array.init (Ddg.node_count g) (fun _ ->
          Array.make machine.Machine.clusters (-1));
    assigned_ops = Array.make machine.Machine.clusters 0;
    moves = 0;
  }

let entry_exn st node =
  match st.entries.(node) with
  | Some e -> e
  | None -> invalid_arg "Vliw.List_sched: predecessor not scheduled"

(* Cycle at which [pred]'s value is (or can be made) available on
   [cluster]; non-mutating estimate. *)
let estimate_avail st pred ~cluster =
  let known = st.avail.(pred).(cluster) in
  if known >= 0 then known
  else
    let e = entry_exn st pred in
    let move_cycle =
      Schedule.earliest_free st.res ~cluster:e.Schedule.cluster
        ~cls:Machine.Slot_move ~from:e.Schedule.finish
    in
    move_cycle + st.machine.Machine.comm_latency

(* Commit the moves needed to consume [pred] on [cluster]. *)
let commit_avail st pred ~cluster =
  let known = st.avail.(pred).(cluster) in
  if known >= 0 then known
  else begin
    let e = entry_exn st pred in
    let move_cycle =
      Schedule.earliest_free st.res ~cluster:e.Schedule.cluster
        ~cls:Machine.Slot_move ~from:e.Schedule.finish
    in
    Schedule.reserve st.res ~cluster:e.Schedule.cluster ~cls:Machine.Slot_move
      ~cycle:move_cycle;
    st.moves <- st.moves + 1;
    let arrival = move_cycle + st.machine.Machine.comm_latency in
    st.avail.(pred).(cluster) <- arrival;
    arrival
  end

let estimate_start st node ~cluster =
  let ready = ref 0 in
  Ddg.iter_preds st.g node (fun src ->
      ready := max !ready (estimate_avail st src ~cluster));
  let ready = !ready in
  let cls = Machine.slot_class_of st.g.Ddg.uops.(node).Clusteer_isa.Uop.opcode in
  Schedule.earliest_free st.res ~cluster ~cls ~from:ready

let commit st node ~cluster =
  let ready = ref 0 in
  Ddg.iter_preds st.g node (fun src ->
      ready := max !ready (commit_avail st src ~cluster));
  let ready = !ready in
  let cls = Machine.slot_class_of st.g.Ddg.uops.(node).Clusteer_isa.Uop.opcode in
  let cycle = Schedule.earliest_free st.res ~cluster ~cls ~from:ready in
  Schedule.reserve st.res ~cluster ~cls ~cycle;
  let finish = cycle + Ddg.static_latency st.g.Ddg.uops.(node) in
  st.entries.(node) <- Some { Schedule.node; cluster; cycle; finish };
  st.avail.(node).(cluster) <- finish;
  st.assigned_ops.(cluster) <- st.assigned_ops.(cluster) + 1

(* Height-priority topological order. *)
let priority_order g =
  let crit = Critical.analyze g in
  let n = Ddg.node_count g in
  let remaining_preds = Array.init n (Ddg.pred_count g) in
  let scheduled = Array.make n false in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    for node = n - 1 downto 0 do
      if (not scheduled.(node)) && remaining_preds.(node) = 0 then
        if
          !best = -1
          || crit.Critical.height.(node) > crit.Critical.height.(!best)
        then best := node
    done;
    if !best < 0 then invalid_arg "Vliw.List_sched: cyclic DDG";
    scheduled.(!best) <- true;
    Ddg.iter_succs g !best (fun dst ->
        remaining_preds.(dst) <- remaining_preds.(dst) - 1);
    order := !best :: !order
  done;
  List.rev !order

let finish_schedule st =
  let entries =
    Array.map
      (function
        | Some e -> e
        | None -> invalid_arg "Vliw.List_sched: unscheduled node")
      st.entries
  in
  (* Makespan: every result is available by the end of cycle
     [finish - 1], so the schedule occupies [max finish] cycles. *)
  let length =
    Array.fold_left (fun acc e -> max acc e.Schedule.finish) 0 entries
  in
  { Schedule.entries; moves = st.moves; length }

let with_assignment machine g ~assignment =
  if Array.length assignment <> Ddg.node_count g then
    invalid_arg "Vliw.List_sched.with_assignment: arity mismatch";
  let st = make_state machine g in
  List.iter
    (fun node ->
      let cluster = assignment.(node) in
      if cluster < 0 || cluster >= machine.Machine.clusters then
        invalid_arg "Vliw.List_sched.with_assignment: cluster out of range";
      commit st node ~cluster)
    (priority_order g);
  finish_schedule st

let unified machine g =
  let st = make_state machine g in
  List.iter
    (fun node ->
      let best = ref 0 and best_start = ref max_int in
      for c = 0 to machine.Machine.clusters - 1 do
        let start = estimate_start st node ~cluster:c in
        if
          start < !best_start
          || (start = !best_start
             && st.assigned_ops.(c) < st.assigned_ops.(!best))
        then begin
          best := c;
          best_start := start
        end
      done;
      commit st node ~cluster:!best)
    (priority_order g);
  finish_schedule st
