open Clusteer_isa
open Clusteer_uarch

let least_loaded view =
  let best = ref 0 in
  for c = 1 to view.Policy.clusters - 1 do
    if view.Policy.inflight.(c) < view.Policy.inflight.(!best) then best := c
  done;
  !best

let make ~critical () =
  let s = Dep.scratch () in
  let decide view u =
    let id = u.Uop.id in
    let is_critical = id < Array.length critical && critical.(id) in
    if not is_critical then Policy.dispatch_to (least_loaded view)
    else
      (* Critical micro-op: chase the operands. *)
      Policy.dispatch_to (Dep.vote s view u)
  in
  {
    Policy.name = "crit";
    decide;
    repeat = Some (fun _view _uop _k -> true);
    uses_vote_unit = true;
  }
