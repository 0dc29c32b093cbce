open Clusteer_isa
open Clusteer_uarch
module Bitset = Clusteer_util.Bitset

let least_loaded view =
  let best = ref 0 in
  for c = 1 to view.Policy.clusters - 1 do
    if view.Policy.inflight c < view.Policy.inflight !best then best := c
  done;
  !best

let make ~critical () =
  (* Decision-path scratch: see [Op.make] — the per-uop path must not
     allocate. *)
  let votes = Array.make Policy.max_clusters 0 in
  let src_buf = ref (Array.make 2 Bitset.empty) in
  let decide view u =
    let id = u.Uop.id in
    let is_critical = id < Array.length critical && critical.(id) in
    if not is_critical then Policy.dispatch_to (least_loaded view)
    else begin
      (* Critical micro-op: chase the operands. *)
      let clusters = view.Policy.clusters in
      let nsrcs = Array.length u.Uop.srcs in
      if Array.length !src_buf < nsrcs then
        src_buf := Array.make nsrcs Bitset.empty;
      let n = view.Policy.src_locations_into u !src_buf in
      for c = 0 to clusters - 1 do
        votes.(c) <- 0
      done;
      for i = 0 to n - 1 do
        let loc = (!src_buf).(i) in
        for c = 0 to clusters - 1 do
          if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
        done
      done;
      let best_votes = ref 0 in
      for c = 0 to clusters - 1 do
        if votes.(c) > !best_votes then best_votes := votes.(c)
      done;
      let best = ref (-1) in
      for c = clusters - 1 downto 0 do
        if
          votes.(c) = !best_votes
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
