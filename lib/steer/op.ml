open Clusteer_isa
open Clusteer_uarch
module Bitset = Clusteer_util.Bitset

let make ?(stall_threshold = 36) ?(imbalance_limit = 200) ?registry ?topology
    () =
  let module Counters = Clusteer_obs.Counters in
  (* Topology awareness: on a non-uniform fabric, load ties are broken
     by the hop cost of the copies the pick would cause (each source
     travels from its nearest resident cluster). On uniform fabrics
     every candidate's cost is identical, so the tie-break never fires
     and the decision stream is bit-identical to the seed policy. The
     cost is pure integer arithmetic over a precomputed matrix — the
     decide path stays allocation-free. *)
  let dist =
    match topology with
    | Some tp when not (Clusteer_topo.Topology.is_uniform tp) ->
        Clusteer_topo.Topology.distance_matrix tp
    | _ -> [||]
  in
  let topo_aware = Array.length dist > 0 in
  (* Introspection: [op.vote_candidates] is a latency proxy for the
     serialized vote hardware of §2.1 — more tied candidates means a
     longer resolve chain; the override/stall counters expose how
     often occupancy-awareness beats pure dependence steering. *)
  let decisions = Counters.counter ?registry "op.decisions" in
  let balance_overrides = Counters.counter ?registry "op.balance_overrides" in
  let steer_away = Counters.counter ?registry "op.steer_away" in
  let stalls = Counters.counter ?registry "op.stall_decisions" in
  let vote_candidates = Counters.histogram ?registry "op.vote_candidates" in
  (* Decision-path scratch, allocated once and reused: the per-uop path
     must not allocate (no lists, no closures, no fresh refs), and
     decisions come from {!Policy.dispatch_to} for the same reason. *)
  let votes = Array.make Policy.max_clusters 0 in
  let src_buf = ref (Array.make 2 Bitset.empty) in
  let ndecisions = ref 0 in
  let best_votes = ref 0 in
  let ncand = ref 0 in
  let preferred = ref 0 in
  let min_load = ref 0 in
  let best_alt = ref 0 in
  (* Hop cost of steering the current micro-op to [c]: each source not
     resident on [c] is copied from its nearest resident cluster.
     Scratch accumulators live at [make] scope so the call allocates
     nothing. Only reached when [topo_aware]. *)
  let cost_acc = ref 0 in
  let cost_near = ref 0 in
  let copy_cost srcs n c =
    cost_acc := 0;
    for i = 0 to n - 1 do
      let loc = srcs.(i) in
      if not (Bitset.mem loc c) then begin
        cost_near := max_int;
        for s = 0 to Array.length dist - 1 do
          if Bitset.mem loc s && dist.(s).(c) < !cost_near then
            cost_near := dist.(s).(c)
        done;
        if !cost_near < max_int then cost_acc := !cost_acc + !cost_near
      end
    done;
    !cost_acc
  in
  (* What the last [core] call found besides its decision: flag 1 when
     the balance override fired, 2 when the pick steered away, 4 when
     the policy stalled. *)
  let flags = ref 0 in
  (* The decision for rotation [rot], a pure function of the view, the
     micro-op and [rot]; it charges nothing. *)
  let core ~rot view u =
    let queue = Opcode.queue u.Uop.opcode in
    let clusters = view.Policy.clusters in
    let nsrcs = Array.length u.Uop.srcs in
    if Array.length !src_buf < nsrcs then
      src_buf := Array.make nsrcs Bitset.empty;
    flags := 0;
    (* The vote. *)
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
    (* Least-loaded candidate, ties resolved by rotated scan order. *)
    ncand := 0;
    preferred := -1;
    for k = 0 to clusters - 1 do
      let c = (rot + k) mod clusters in
      if votes.(c) = !best_votes then begin
        incr ncand;
        if
          !preferred = -1
          || view.Policy.inflight c < view.Policy.inflight !preferred
          || topo_aware
             && view.Policy.inflight c = view.Policy.inflight !preferred
             && copy_cost !src_buf n c < copy_cost !src_buf n !preferred
        then preferred := c
      end
    done;
    min_load := max_int;
    for c = 0 to clusters - 1 do
      let l = view.Policy.inflight c in
      if l < !min_load then min_load := l
    done;
    (* Balance override: a severely overloaded preferred cluster loses
       its dependence advantage. *)
    if view.Policy.inflight !preferred - !min_load > imbalance_limit then begin
      flags := 1;
      preferred := -1;
      for k = 0 to clusters - 1 do
        let c = (rot + k) mod clusters in
        if
          !preferred = -1
          || view.Policy.inflight c < view.Policy.inflight !preferred
          || topo_aware
             && view.Policy.inflight c = view.Policy.inflight !preferred
             && copy_cost !src_buf n c < copy_cost !src_buf n !preferred
        then preferred := c
      done
    end;
    if view.Policy.queue_free !preferred queue > 0 then Policy.dispatch_to !preferred
    else begin
      (* Preferred cluster is out of queue slots: steer away only when
         some other cluster is comfortably idle, otherwise stall
         (stall-over-steer). *)
      best_alt := -1;
      for k = 0 to clusters - 1 do
        let c = (rot + k) mod clusters in
        if
          c <> !preferred
          && view.Policy.queue_free c queue >= stall_threshold
          && (!best_alt = -1
             || view.Policy.inflight c < view.Policy.inflight !best_alt
             || topo_aware
                && view.Policy.inflight c = view.Policy.inflight !best_alt
                && copy_cost !src_buf n c < copy_cost !src_buf n !best_alt)
        then best_alt := c
      done;
      if !best_alt = -1 then begin
        flags := !flags lor 4;
        Policy.Stall
      end
      else begin
        flags := !flags lor 2;
        Policy.dispatch_to !best_alt
      end
    end
  in
  (* A consult's outcome: its tied candidates above its flags. *)
  let outcome () = (!ncand lsl 3) lor !flags in
  (* Charge [times] consults with outcome [outcome]. *)
  let charge outcome times =
    Counters.add decisions times;
    Counters.observe_n vote_candidates (outcome lsr 3) times;
    if outcome land 1 <> 0 then Counters.add balance_overrides times;
    if outcome land 2 <> 0 then Counters.add steer_away times;
    if outcome land 4 <> 0 then Counters.add stalls times
  in
  (* The last decision returned, as its cluster or -1 for [Stall];
     [min_int] before the first. *)
  let code = function Policy.Dispatch_to c -> c | Policy.Stall -> -1 in
  let last = ref min_int in
  let decide view u =
    (* Tie rotation: scanning always from cluster 0 funnels every tie
       (notably the all-zero vote of source-free micro-ops on an idle
       machine) into cluster 0; rotating the scan start by decision
       count spreads ties evenly without changing any untied pick. *)
    let rot = !ndecisions mod view.Policy.clusters in
    incr ndecisions;
    let d = core ~rot view u in
    charge (outcome ()) 1;
    last := code d;
    d
  in
  (* The next [k] consults run at rotations [ndecisions ..
     ndecisions + k - 1], which repeat every [clusters]: residue [j]
     recurs [(k - j + clusters - 1) / clusters] times. They repeat the
     last decision only if every residue's does. *)
  let outcomes = Array.make Policy.max_clusters 0 in
  let repeat view u k =
    let clusters = view.Policy.clusters in
    let n = Int.min k clusters in
    let same = ref true and j = ref 0 in
    while !same && !j < n do
      if code (core ~rot:((!ndecisions + !j) mod clusters) view u) = !last
      then begin
        outcomes.(!j) <- outcome ();
        incr j
      end
      else same := false
    done;
    if !same then begin
      for j = 0 to n - 1 do
        charge outcomes.(j) ((k - j + clusters - 1) / clusters)
      done;
      ndecisions := !ndecisions + k
    end;
    !same
  in
  {
    Policy.name = "op";
    decide;
    repeat = Some repeat;
    uses_vote_unit = true;
  }
