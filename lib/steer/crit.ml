open Clusteer_uarch
open Clusteer_trace
module Bitset = Clusteer_util.Bitset

let least_loaded view =
  let best = ref 0 in
  for c = 1 to view.Policy.clusters - 1 do
    if view.Policy.inflight c < view.Policy.inflight !best then best := c
  done;
  !best

let make ~critical () =
  let decide view duop =
    let id = Dynuop.static_id duop in
    let is_critical = id < Array.length critical && critical.(id) in
    if not is_critical then Policy.dispatch_to (least_loaded view)
    else begin
      (* Critical micro-op: chase the operands. *)
      let clusters = view.Policy.clusters in
      let votes = Array.make clusters 0 in
      Array.iter
        (fun loc ->
          for c = 0 to clusters - 1 do
            if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
          done)
        (view.Policy.src_locations duop);
      let best_votes = Array.fold_left max 0 votes in
      let best = ref (-1) in
      for c = clusters - 1 downto 0 do
        if
          votes.(c) = best_votes
          && (!best = -1 || view.Policy.inflight c < view.Policy.inflight !best)
        then best := c
      done;
      Policy.dispatch_to !best
    end
  in
  {
    Policy.name = "crit";
    decide;
    uses_dependence_check = true;
    uses_vote_unit = true;
  }
