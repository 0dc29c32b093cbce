open Clusteer_isa
open Clusteer_ddg
module Uarch = Clusteer_uarch

let codes = [ "PL001"; "PL002"; "PL003"; "PL004"; "PL005" ]

let check ~program ~likely ~annot ~config ~region_uops =
  let n = program.Program.uop_count in
  if Array.length annot.Annot.cluster_of <> n then
    [
      Diag.errorf ~code:"PL003" "cluster_of has %d entries for %d static uops"
        (Array.length annot.Annot.cluster_of)
        n;
    ]
  else begin
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let clusters = config.Uarch.Config.clusters in
    Array.iteri
      (fun id c ->
        let block = Program.block_of_uop program id in
        if c = -1 then
          add
            (Diag.errorf ~uop:id ~block ~code:"PL002"
               "uop unplaced under static scheme %S" annot.Annot.scheme)
        else if c < 0 || c >= clusters then
          add
            (Diag.errorf ~uop:id ~block ~code:"PL001"
               "cluster %d out of range [0, %d)" c clusters))
      annot.Annot.cluster_of;
    (* PL004 (info): static per-region queue pressure.  A region that
       places more uops of one queue class on a cluster than its issue
       queue holds cannot ever have the whole region in flight there. *)
    let regions = Region.build ~program ~likely ~max_uops:region_uops in
    List.iter
      (fun (region : Region.t) ->
        let int_load = Array.make clusters 0 in
        let fp_load = Array.make clusters 0 in
        Array.iter
          (fun (u : Uop.t) ->
            let c = annot.Annot.cluster_of.(u.Uop.id) in
            if c >= 0 && c < clusters then
              match Opcode.queue u.Uop.opcode with
              | Opcode.Int_queue -> int_load.(c) <- int_load.(c) + 1
              | Opcode.Fp_queue -> fp_load.(c) <- fp_load.(c) + 1
              | Opcode.Copy_queue -> ())
          region.Region.uops;
        for c = 0 to clusters - 1 do
          if int_load.(c) > config.Uarch.Config.int_iq_size then
            add
              (Diag.infof ~region:region.Region.id ~code:"PL004"
                 "region %d places %d INT-queue uops on cluster %d (queue \
                  holds %d)"
                 region.Region.id int_load.(c) c
                 config.Uarch.Config.int_iq_size);
          if fp_load.(c) > config.Uarch.Config.fp_iq_size then
            add
              (Diag.infof ~region:region.Region.id ~code:"PL004"
                 "region %d places %d FP-queue uops on cluster %d (queue \
                  holds %d)"
                 region.Region.id fp_load.(c) c config.Uarch.Config.fp_iq_size)
        done)
      regions;
    List.rev !diags
  end

let check_crit ~program ~likely ~critical ~region_uops ~slack_threshold =
  let n = program.Program.uop_count in
  if Array.length critical <> n then
    [
      Diag.errorf ~code:"PL003" "criticality hints have %d entries for %d \
                                 static uops"
        (Array.length critical) n;
    ]
  else begin
    let diags = ref [] in
    (* Slack comes from the shared longest-path module — the same
       function Crit_hints calls — so this pass checks the hints
       against their own definition, not a private recomputation. *)
    List.iter
      (fun (rs : Slack.region_slack) ->
        Slack.iter rs (fun ~node:_ ~uop:(u : Uop.t) ~slack ->
            let id = u.Uop.id in
            let expected = slack <= slack_threshold in
            if expected && not critical.(id) then
              diags :=
                Diag.errorf ~uop:id
                  ~block:(Program.block_of_uop program id)
                  ~region:rs.Slack.region.Region.id ~code:"PL005"
                  "uop with slack %d (threshold %d) not marked critical" slack
                  slack_threshold
                :: !diags
            else if (not expected) && critical.(id) then
              diags :=
                Diag.errorf ~uop:id
                  ~block:(Program.block_of_uop program id)
                  ~region:rs.Slack.region.Region.id ~code:"PL005"
                  "uop marked critical but has slack %d (threshold %d)" slack
                  slack_threshold
                :: !diags))
      (Slack.analyze ~program ~likely ~region_uops);
    List.rev !diags
  end
