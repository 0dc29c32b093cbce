open Clusteer_ddg

type t = {
  g : Ddg.t;
  parts : int;
  issue_width : float;
  contention : float array;  (* per node: queueing-delay scale; [||] = all 1 *)
  part_of : int array;
  completion : float array;
  busy : float array;  (* per part: estimated next free issue slot *)
  work : float array;  (* per part: accumulated latency (balance metric) *)
}

let issue_width = 2.0
let comm_latency = 1.0

let create ~parts ~issue_width ?contention g =
  if parts <= 0 then invalid_arg "Estimate.create: parts must be positive";
  if issue_width <= 0.0 then
    invalid_arg "Estimate.create: issue width must be positive";
  let n = Ddg.node_count g in
  let contention =
    match contention with
    | None -> [||]
    | Some c when Array.length c = n -> c
    | Some _ -> invalid_arg "Estimate.create: contention arity"
  in
  {
    g;
    parts;
    issue_width;
    contention;
    part_of = Array.make n (-1);
    completion = Array.make n 0.0;
    busy = Array.make parts 0.0;
    work = Array.make parts 0.0;
  }

(* The helpers below return floats; they are inlined so that nothing
   is boxed on the per-node, per-part path. [fmax] is [Float.max] for
   the non-NaN, non-negative times compared here. *)
let[@inline] fmax (x : float) y = if y > x then y else x

let[@inline] ready_time t ~node ~part =
  let g = t.g in
  let ready = ref 0.0 in
  for k = g.Ddg.pred_off.(node) to g.Ddg.pred_off.(node + 1) - 1 do
    let p = g.Ddg.pred.(k) in
    if t.part_of.(p) = -1 then
      invalid_arg "Estimate: predecessor not yet placed";
    let comm = if t.part_of.(p) = part then 0.0 else comm_latency in
    ready := fmax !ready (t.completion.(p) +. comm)
  done;
  !ready

(* Issue start time: the instruction begins when its operands are ready
   and an issue slot frees up. [contention] lets critical nodes
   discount the queueing delay — they should chase their producers even
   into a busy part, which is how critical dependence chains stay
   whole (paper §5.3). *)
let[@inline] start_time t ~node ~part =
  let ready = ready_time t ~node ~part in
  let busy = t.busy.(part) in
  if busy <= ready then ready
  else
    let scale =
      if Array.length t.contention = 0 then 1.0 else t.contention.(node)
    in
    ready +. ((busy -. ready) *. scale)

let[@inline] latency t node = float_of_int t.g.Ddg.latency.(node)
let[@inline] cost t ~node ~part = start_time t ~node ~part +. latency t node

let estimate t ~node ~part =
  if part < 0 || part >= t.parts then invalid_arg "Estimate.estimate: part";
  cost t ~node ~part

let cheapest t ~node =
  let best = ref 0 and best_cost = ref infinity in
  for part = 0 to t.parts - 1 do
    let c = cost t ~node ~part in
    if c < !best_cost || (c = !best_cost && t.work.(part) < t.work.(!best))
    then begin
      best := part;
      best_cost := c
    end
  done;
  !best

let place t ~node ~part =
  if part < 0 || part >= t.parts then invalid_arg "Estimate.place: part";
  if t.part_of.(node) <> -1 then invalid_arg "Estimate.place: already placed";
  let start = fmax (ready_time t ~node ~part) t.busy.(part) in
  let finish = start +. latency t node in
  t.part_of.(node) <- part;
  t.completion.(node) <- finish;
  (* Each placed op consumes one issue slot of the part. *)
  t.busy.(part) <- start +. (1.0 /. t.issue_width);
  t.work.(part) <- t.work.(part) +. latency t node

let part_of t node = t.part_of.(node)
let assignment t = t.part_of
let completion t node = t.completion.(node)
let load t part = t.work.(part)

let lightest_part t =
  let best = ref 0 in
  for p = 1 to t.parts - 1 do
    if t.work.(p) < t.work.(!best) then best := p
  done;
  !best
