open Clusteer_isa
open Clusteer_uarch
module Counters = Clusteer_obs.Counters
module Topology = Clusteer_topo.Topology

let least_loaded view =
  let best = ref 0 in
  for c = 1 to view.Policy.clusters - 1 do
    if view.Policy.inflight c < view.Policy.inflight !best then best := c
  done;
  !best

let make ?(remap_threshold = 8) ?registry ?topology ~annot ~clusters () =
  if annot.Annot.virtual_clusters <= 0 then
    invalid_arg "Vc_map.make: annotation has no virtual clusters";
  let table =
    Array.init annot.Annot.virtual_clusters (fun v -> v mod clusters)
  in
  (* Topology awareness: on a non-uniform fabric the remap target is
     chosen distance-aware (nearest of the least-loaded clusters to the
     VC's current home, so remap-induced copies travel few hops) and
     the hop distance of every remap is recorded. On uniform fabrics
     (p2p, bus) every cross-cluster distance is 1, so the seed's
     pick-the-least-loaded behavior — and its counter set — is kept
     bit-identical. *)
  let dist =
    match topology with
    | Some tp when not (Topology.is_uniform tp) -> Topology.distance_matrix tp
    | _ -> [||]
  in
  let topo_aware = Array.length dist > 0 in
  let remap_hops =
    if topo_aware then Some (Counters.histogram ?registry "steer.remap.hops")
    else None
  in
  (* Introspection: decision mix, remap activity, and how long the
     chain that just ended was when a leader consulted the counters —
     the quantities that explain VC-map thrashing. *)
  let decisions = Counters.counter ?registry "vc.decisions" in
  let unassigned = Counters.counter ?registry "vc.unassigned" in
  let leaders = Counters.counter ?registry "vc.leader_decisions" in
  let remaps = Counters.counter ?registry "vc.remaps" in
  let chain_len = Counters.histogram ?registry "vc.chain_uops_at_leader" in
  let since_leader = Array.make annot.Annot.virtual_clusters 0 in
  let decide view u =
    let id = u.Uop.id in
    let vc = annot.Annot.vc_of.(id) in
    Counters.incr decisions;
    if vc < 0 then begin
      Counters.incr unassigned;
      Policy.dispatch_to (least_loaded view)
    end
    else begin
      (* At a chain leader the workload counters are consulted; the VC
         is remapped only when its current cluster is ahead of the
         least-loaded one by more than the threshold — the hysteresis
         keeps consecutive chains of a VC together unless the
         imbalance is worth a remap. *)
      if annot.Annot.leader.(id) then begin
        Counters.incr leaders;
        Counters.observe chain_len since_leader.(vc);
        since_leader.(vc) <- 0;
        let best = least_loaded view in
        let cur = table.(vc) in
        if
          view.Policy.inflight cur - view.Policy.inflight best
          > remap_threshold
        then begin
          Counters.incr remaps;
          let target =
            if not topo_aware then best
            else begin
              (* Nearest-to-home among the clusters at the global
                 minimum load; ties by lowest index. [best] is the
                 lowest-index minimum, so the scan below computes the
                 lexicographic (distance, index) minimum. *)
              let min_load = view.Policy.inflight best in
              let t = ref best in
              for c = 0 to view.Policy.clusters - 1 do
                if
                  view.Policy.inflight c = min_load
                  && dist.(cur).(c) < dist.(cur).(!t)
                then t := c
              done;
              !t
            end
          in
          (match remap_hops with
          | None -> ()
          | Some h -> Counters.observe h dist.(cur).(target));
          table.(vc) <- target
        end
      end;
      since_leader.(vc) <- since_leader.(vc) + 1;
      Policy.dispatch_to table.(vc)
    end
  in
  (* A follower or an unassigned micro-op reads no state but its
     counters. A leader consulted again right after its own consult
     finds its chain one micro-op long, and its VC where that consult
     left it: on the same view it remaps again only under a negative
     threshold, which is not a repeat. *)
  let repeat view u k =
    let id = u.Uop.id in
    let vc = annot.Annot.vc_of.(id) in
    if vc < 0 then begin
      Counters.add decisions k;
      Counters.add unassigned k;
      true
    end
    else if not annot.Annot.leader.(id) then begin
      Counters.add decisions k;
      since_leader.(vc) <- since_leader.(vc) + k;
      true
    end
    else if
      view.Policy.inflight table.(vc) - view.Policy.inflight (least_loaded view)
      <= remap_threshold
    then begin
      Counters.add decisions k;
      Counters.add leaders k;
      Counters.observe_n chain_len 1 k;
      true
    end
    else false
  in
  {
    Policy.name = "vc";
    decide;
    repeat = Some repeat;
    uses_vote_unit = false;
  }
