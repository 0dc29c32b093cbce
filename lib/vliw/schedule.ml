open Clusteer_ddg

type reservation = {
  machine : Machine.t;
  (* used.(cluster) : per slot-class growable usage counters by cycle *)
  used : Clusteer_util.Vec.t array array;
}

let class_index = function
  | Machine.Slot_int -> 0
  | Machine.Slot_fp -> 1
  | Machine.Slot_mem -> 2
  | Machine.Slot_move -> 3

let create_reservation machine =
  Machine.validate machine;
  {
    machine;
    used =
      Array.init machine.Machine.clusters (fun _ ->
          Array.init 4 (fun _ -> Clusteer_util.Vec.create ~default:0 ()));
  }

let earliest_free r ~cluster ~cls ~from =
  let vec = r.used.(cluster).(class_index cls) in
  let cap = Machine.slots r.machine cls in
  let rec scan cycle =
    if Clusteer_util.Vec.get vec cycle < cap then cycle else scan (cycle + 1)
  in
  scan (max 0 from)

let reserve r ~cluster ~cls ~cycle =
  let vec = r.used.(cluster).(class_index cls) in
  let cap = Machine.slots r.machine cls in
  let used = Clusteer_util.Vec.get vec cycle in
  if used >= cap then invalid_arg "Vliw.Schedule.reserve: slot full";
  Clusteer_util.Vec.set vec cycle (used + 1)

type entry = { node : int; cluster : int; cycle : int; finish : int }

type t = { entries : entry array; moves : int; length : int }

let ipc t =
  if t.length = 0 then 0.0
  else float_of_int (Array.length t.entries) /. float_of_int t.length

let validate t (g : Ddg.t) machine =
  if Array.length t.entries <> Ddg.node_count g then
    invalid_arg "Vliw.Schedule.validate: arity mismatch";
  Array.iteri
    (fun node e ->
      if e.node <> node then invalid_arg "Vliw.Schedule.validate: misindexed";
      if e.cluster < 0 || e.cluster >= machine.Machine.clusters then
        invalid_arg "Vliw.Schedule.validate: cluster out of range";
      let own_latency = Ddg.static_latency g.Ddg.uops.(node) in
      if e.finish < e.cycle + own_latency then
        invalid_arg "Vliw.Schedule.validate: finish before latency";
      Ddg.iter_preds g node (fun src ->
          let p = t.entries.(src) in
          let comm =
            if p.cluster = e.cluster then 0 else machine.Machine.comm_latency
          in
          if e.cycle < p.finish + comm then
            invalid_arg
              (Printf.sprintf
                 "Vliw.Schedule.validate: node %d issues at %d before \
                  operand from %d ready at %d(+%d comm)"
                 node e.cycle src p.finish comm)))
    t.entries
