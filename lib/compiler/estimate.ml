open Clusteer_ddg

type t = {
  g : Ddg.t;
  parts : int;
  issue_width : float;
  contention_scale : int -> float;
  part_of : int array;
  completion : float array;
  busy : float array;  (* per part: estimated next free issue slot *)
  work : float array;  (* per part: accumulated latency (balance metric) *)
}

let issue_width = 2.0
let comm_latency = 1.0

let create ~parts ~issue_width ?(contention_scale = fun _ -> 1.0) g =
  if parts <= 0 then invalid_arg "Estimate.create: parts must be positive";
  if issue_width <= 0.0 then
    invalid_arg "Estimate.create: issue width must be positive";
  {
    g;
    parts;
    issue_width;
    contention_scale;
    part_of = Array.make (Ddg.node_count g) (-1);
    completion = Array.make (Ddg.node_count g) 0.0;
    busy = Array.make parts 0.0;
    work = Array.make parts 0.0;
  }

let ready_time t ~node ~part =
  List.fold_left
    (fun acc (e : Ddg.edge) ->
      let p = e.Ddg.src in
      if t.part_of.(p) = -1 then
        invalid_arg "Estimate: predecessor not yet placed";
      let comm = if t.part_of.(p) = part then 0.0 else comm_latency in
      Float.max acc (t.completion.(p) +. comm))
    0.0
    t.g.Ddg.preds.(node)

(* Issue start time: the instruction begins when its operands are ready
   and an issue slot frees up. [contention_scale] lets critical nodes
   discount the queueing delay — they should chase their producers even
   into a busy part, which is how critical dependence chains stay
   whole (paper §5.3). *)
let start_time t ~node ~part =
  let ready = ready_time t ~node ~part in
  let busy = t.busy.(part) in
  if busy <= ready then ready
  else ready +. ((busy -. ready) *. t.contention_scale node)

let estimate t ~node ~part =
  if part < 0 || part >= t.parts then invalid_arg "Estimate.estimate: part";
  start_time t ~node ~part
  +. float_of_int (Ddg.static_latency t.g.Ddg.uops.(node))

let place t ~node ~part =
  if part < 0 || part >= t.parts then invalid_arg "Estimate.place: part";
  if t.part_of.(node) <> -1 then invalid_arg "Estimate.place: already placed";
  let start = Float.max (ready_time t ~node ~part) t.busy.(part) in
  let finish =
    start +. float_of_int (Ddg.static_latency t.g.Ddg.uops.(node))
  in
  t.part_of.(node) <- part;
  t.completion.(node) <- finish;
  (* Each placed op consumes one issue slot of the part. *)
  t.busy.(part) <- start +. (1.0 /. t.issue_width);
  t.work.(part) <-
    t.work.(part) +. float_of_int (Ddg.static_latency t.g.Ddg.uops.(node))

let part_of t node = t.part_of.(node)
let completion t node = t.completion.(node)
let load t part = t.work.(part)

let lightest_part t =
  let best = ref 0 in
  for p = 1 to t.parts - 1 do
    if t.work.(p) < t.work.(!best) then best := p
  done;
  !best
