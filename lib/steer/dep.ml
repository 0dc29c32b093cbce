open Clusteer_uarch
module Bitset = Clusteer_util.Bitset
module Counters = Clusteer_obs.Counters

let make ?registry () =
  let decisions = Counters.counter ?registry "dep.decisions" in
  let vote_ties = Counters.histogram ?registry "dep.vote_ties" in
  (* Decision-path scratch: see [Op.make] — the per-uop path must not
     allocate. *)
  let votes = Array.make Policy.max_clusters 0 in
  let src_buf = ref (Array.make 2 Bitset.empty) in
  let best_votes = ref 0 in
  let ties = ref 0 in
  let best = ref 0 in
  let decide view u =
    Counters.incr decisions;
    let clusters = view.Policy.clusters in
    let nsrcs = Array.length u.Clusteer_isa.Uop.srcs in
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
    best_votes := 0;
    for c = 0 to clusters - 1 do
      if votes.(c) > !best_votes then best_votes := votes.(c)
    done;
    ties := 0;
    for c = 0 to clusters - 1 do
      if votes.(c) = !best_votes then incr ties
    done;
    Counters.observe vote_ties !ties;
    best := -1;
    for c = clusters - 1 downto 0 do
      if
        votes.(c) = !best_votes
        && (!best = -1 || view.Policy.inflight c < view.Policy.inflight !best)
      then best := c
    done;
    Policy.dispatch_to !best
  in
  {
    Policy.name = "dep";
    decide;
    uses_dependence_check = true;
    uses_vote_unit = true;
  }
