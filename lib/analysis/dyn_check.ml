open Clusteer_isa
module Uarch = Clusteer_uarch
module Counters = Clusteer_obs.Counters
module Topology = Clusteer_topo.Topology

type event = { uop : int; cluster : int }

let codes = [ "DYN001"; "DYN002" ]
let drift_codes = [ "CM100"; "CM101"; "CM102"; "CM103" ]

let recording (policy : Uarch.Policy.t) =
  let events = ref [] in
  let decide view u =
    let d = policy.Uarch.Policy.decide view u in
    (match d with
    | Uarch.Policy.Dispatch_to cluster ->
        events := { uop = u.Uop.id; cluster } :: !events
    | Uarch.Policy.Stall -> ());
    d
  in
  (* Every consult is an event: no repeat may charge one unseen. *)
  ({ policy with Uarch.Policy.decide; repeat = None }, fun () ->
    List.rev !events)

let check ~annot ~clusters events =
  let n = Array.length annot.Annot.vc_of in
  let nvc = annot.Annot.virtual_clusters in
  let table = Array.init (max nvc 0) (fun v -> v mod clusters) in
  let diags = ref [] in
  List.iteri
    (fun seq { uop; cluster } ->
      if uop < 0 || uop >= n then
        diags :=
          Diag.errorf ~uop ~code:"DYN001"
            "event %d names uop %d out of range [0, %d)" seq uop n
          :: !diags
      else begin
        let vc = annot.Annot.vc_of.(uop) in
        if vc >= 0 && vc < nvc then
          if annot.Annot.leader.(uop) then
            (* Leaders may remap: whatever the policy chose becomes the
               VC's table entry, exactly as the hardware would latch it. *)
            table.(vc) <- cluster
          else if table.(vc) <> cluster then
            diags :=
              Diag.errorf ~uop ~code:"DYN002"
                "event %d: non-leader of vc %d steered to cluster %d, table \
                 says %d"
                seq vc cluster table.(vc)
              :: !diags
      end)
    events;
  List.rev !diags

type run = {
  dispatched : int;
  copies_generated : int;
  remaps : int;
  leader_decisions : int;
  remap_hops_max : int;
}

let observe_run ~registry (stats : Uarch.Stats.t) =
  let c name = Counters.value (Counters.counter ~registry name) in
  {
    dispatched = stats.Uarch.Stats.dispatched;
    copies_generated = stats.Uarch.Stats.copies_generated;
    remaps = c "vc.remaps";
    leader_decisions = c "vc.leader_decisions";
    remap_hops_max =
      Counters.hist_max (Counters.histogram ~registry "steer.remap.hops");
  }

let check_drift ~model run =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let bound =
    Cost_model.copy_bound model ~dispatched:run.dispatched ~remaps:run.remaps
  in
  let rate =
    if run.dispatched = 0 then 0.
    else float_of_int run.copies_generated /. float_of_int run.dispatched
  in
  add
    (Diag.infof ~code:"CM100"
       "run generated %d copies over %d dispatched uops (%.3f/uop); static \
        bound %d (rate %.3f/uop + %d remaps x %d live + %d edge), predicted \
        %.3f/uop"
       run.copies_generated run.dispatched rate bound
       model.Cost_model.bound_copy_rate run.remaps
       model.Cost_model.peak_live
       (model.Cost_model.max_srcs * model.Cost_model.max_block_uops)
       model.Cost_model.pred_copy_rate);
  if run.copies_generated > bound then
    add
      (Diag.errorf ~code:"CM101"
         "dynamic copies %d exceed the static bound %d — the policy \
          communicates more than the placement can explain"
         run.copies_generated bound);
  if model.Cost_model.kind = Cost_model.Virtual_placement then begin
    if run.remaps > run.leader_decisions then
      add
        (Diag.errorf ~code:"CM102"
           "%d remaps recorded over only %d chain-leader decisions — the \
            hardware remapped mid-chain"
           run.remaps run.leader_decisions)
  end;
  let diam = Topology.diameter model.Cost_model.topology in
  if run.remap_hops_max > diam then
    add
      (Diag.errorf ~code:"CM103"
         "a remap moved a virtual cluster %d hops; the topology diameter is \
          %d"
         run.remap_hops_max diam);
  List.rev !diags
