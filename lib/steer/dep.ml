open Clusteer_uarch
module Bitset = Clusteer_util.Bitset
module Counters = Clusteer_obs.Counters

(* Decision-path scratch: see [Op.make] — the per-uop path must not
   allocate. *)
type scratch = {
  votes : int array;
  mutable srcs : Bitset.t array;
  mutable ties : int;  (* clusters tying the highest vote, last [vote] *)
}

let scratch () =
  {
    votes = Array.make Policy.max_clusters 0;
    srcs = Array.make 2 Bitset.empty;
    ties = 0;
  }

let vote s view u =
  let clusters = view.Policy.clusters in
  let nsrcs = Array.length u.Clusteer_isa.Uop.srcs in
  if Array.length s.srcs < nsrcs then
    s.srcs <- Array.make nsrcs Bitset.empty;
  let n = view.Policy.src_locations_into u s.srcs in
  let votes = s.votes in
  for c = 0 to clusters - 1 do
    votes.(c) <- 0
  done;
  for i = 0 to n - 1 do
    let loc = s.srcs.(i) in
    for c = 0 to clusters - 1 do
      if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
    done
  done;
  let best_votes = ref 0 in
  for c = 0 to clusters - 1 do
    if votes.(c) > !best_votes then best_votes := votes.(c)
  done;
  let ties = ref 0 in
  for c = 0 to clusters - 1 do
    if votes.(c) = !best_votes then incr ties
  done;
  s.ties <- !ties;
  let best = ref (-1) in
  for c = clusters - 1 downto 0 do
    if
      votes.(c) = !best_votes
      && (!best = -1 || view.Policy.inflight.(c) < view.Policy.inflight.(!best))
    then best := c
  done;
  !best

let make ?registry () =
  let decisions = Counters.counter ?registry "dep.decisions" in
  let vote_ties = Counters.histogram ?registry "dep.vote_ties" in
  let s = scratch () in
  let decide view u =
    Counters.incr decisions;
    let best = vote s view u in
    Counters.observe vote_ties s.ties;
    Policy.dispatch_to best
  in
  (* The vote is a function of the view: each repeated consult ties the
     same clusters. *)
  let repeat view u k =
    ignore (vote s view u);
    Counters.add decisions k;
    Counters.observe_n vote_ties s.ties k;
    true
  in
  {
    Policy.name = "dep";
    decide;
    repeat = Some repeat;
    uses_vote_unit = true;
  }
