open Clusteer_isa
open Clusteer_ddg
module Compiler = Clusteer_compiler

let ragged (p : Program.t) (a : Annot.t) =
  let n = p.Program.uop_count in
  let bad name len =
    if len <> n then
      Some
        (Diag.errorf ~code:"VC001" "%s has %d entries for %d static uops" name
           len n)
    else None
  in
  List.filter_map Fun.id
    [
      bad "vc_of" (Array.length a.Annot.vc_of);
      bad "leader" (Array.length a.Annot.leader);
      bad "cluster_of" (Array.length a.Annot.cluster_of);
    ]

let codes =
  [
    "VC001"; "VC002"; "VC003"; "VC004"; "VC005"; "VC006"; "VC007";
    "VC008"; "VC009"; "VC010";
  ]

let check ~program ~likely ~annot ~region_uops ~max_chain =
  match ragged program annot with
  | _ :: _ as diags -> diags
  | [] ->
      let diags = ref [] in
      let add d = diags := d :: !diags in
      let nvc = annot.Annot.virtual_clusters in
      if nvc > program.Program.uop_count then
        add
          (Diag.warnf ~code:"VC010"
             "%d virtual clusters for %d static uops: a partition with more \
              parts than elements"
             nvc program.Program.uop_count);
      (* VC002/VC003/VC004: per-uop assignment sanity. *)
      Array.iteri
        (fun id vc ->
          let block = Program.block_of_uop program id in
          if vc = -1 then
            add
              (Diag.errorf ~uop:id ~block ~code:"VC003"
                 "uop unassigned under scheme %S" annot.Annot.scheme)
          else if vc < 0 || vc >= nvc then
            add
              (Diag.errorf ~uop:id ~block ~code:"VC002"
                 "vc %d out of range [0, %d)" vc nvc);
          if annot.Annot.leader.(id) && vc = -1 then
            add
              (Diag.errorf ~uop:id ~block ~code:"VC004"
                 "leader mark on a uop with no virtual cluster"))
        annot.Annot.vc_of;
      (* VC005/VC006: recompute chain-leader marks per region and
         compare with the annotation. Uses the same
         [Compiler.Chains.iter_chain_starts] the compiler's
         [mark_region] uses, so checker and compiler (including the
         [max_chain] cap) can never drift. *)
      let regions = Region.build ~program ~likely ~max_uops:region_uops in
      List.iter
        (fun (region : Region.t) ->
          Compiler.Chains.iter_chain_starts ~max_chain
            ~vc_of:(fun id -> annot.Annot.vc_of.(id))
            region
            (fun id ~vc ~start:expected ->
              let marked = annot.Annot.leader.(id) in
              let block = Program.block_of_uop program id in
              if expected && not marked then
                add
                  (Diag.errorf ~uop:id ~block ~region:region.Region.id
                     ~code:"VC005" "chain start of vc %d missing leader mark"
                     vc)
              else if marked && vc <> -1 && not expected then
                add
                  (Diag.errorf ~uop:id ~block ~region:region.Region.id
                     ~code:"VC006" "leader mark inside a chain of vc %d" vc)))
        regions;
      (* VC007 (info): empty virtual clusters. *)
      let population = Array.make (max nvc 0) 0 in
      Array.iter
        (fun vc ->
          if vc >= 0 && vc < nvc then population.(vc) <- population.(vc) + 1)
        annot.Annot.vc_of;
      Array.iteri
        (fun vc count ->
          if count = 0 then
            add
              (Diag.infof ~code:"VC007" "virtual cluster %d has no uops" vc))
        population;
      (* VC009 (info): per-region per-VC DDG connectivity.  Union-find
         over intra-VC edges; a VC whose region slice splits into
         several components groups dependence-unrelated code. *)
      List.iter
        (fun (region : Region.t) ->
          let g = Ddg.of_region region in
          let n = Ddg.node_count g in
          let parent = Array.init n Fun.id in
          let rec find i =
            if parent.(i) = i then i
            else begin
              parent.(i) <- find parent.(i);
              parent.(i)
            end
          in
          let union a b =
            let ra = find a and rb = find b in
            if ra <> rb then parent.(ra) <- rb
          in
          let vc_of node =
            let id = region.Region.uops.(node).Uop.id in
            annot.Annot.vc_of.(id)
          in
          Ddg.iter_edges g (fun src dst ->
              let v = vc_of src in
              if v <> -1 && v = vc_of dst then union src dst);
          (* Unions only join same-VC nodes, so each component's
             representative shares its members' vc: counting roots per
             vc counts components per vc. *)
          let components = Array.make (max nvc 0) 0 in
          for node = 0 to n - 1 do
            let v = vc_of node in
            if v >= 0 && v < nvc && find node = node then
              components.(v) <- components.(v) + 1
          done;
          Array.iteri
            (fun v c ->
              if c > 1 then
                add
                  (Diag.infof ~region:region.Region.id ~code:"VC009"
                     "vc %d splits into %d dependence components in region %d"
                     v c region.Region.id))
            components)
        regions;
      List.rev !diags

let check_summary ~program ~likely ~annot ~claimed ~region_uops ~max_chain =
  match ragged program annot with
  | _ :: _ as diags -> diags
  | [] ->
      let fresh =
        Compiler.Diagnostics.of_annot ~program ~likely ~annot ~region_uops
          ~max_chain
      in
      let diags = ref [] in
      let mismatch field got want =
        if got <> want then
          diags :=
            Diag.errorf ~code:"VC008"
              "claimed %s = %d, independent recomputation finds %d" field got
              want
            :: !diags
      in
      mismatch "static_uops" claimed.Compiler.Diagnostics.static_uops
        fresh.Compiler.Diagnostics.static_uops;
      mismatch "regions" claimed.Compiler.Diagnostics.regions
        fresh.Compiler.Diagnostics.regions;
      mismatch "chains" claimed.Compiler.Diagnostics.chains
        fresh.Compiler.Diagnostics.chains;
      mismatch "max_chain_length" claimed.Compiler.Diagnostics.max_chain_length
        fresh.Compiler.Diagnostics.max_chain_length;
      mismatch "cross_vc_edges" claimed.Compiler.Diagnostics.cross_vc_edges
        fresh.Compiler.Diagnostics.cross_vc_edges;
      mismatch "intra_vc_edges" claimed.Compiler.Diagnostics.intra_vc_edges
        fresh.Compiler.Diagnostics.intra_vc_edges;
      if
        Array.length claimed.Compiler.Diagnostics.vc_population
        <> Array.length fresh.Compiler.Diagnostics.vc_population
        || claimed.Compiler.Diagnostics.vc_population
           <> fresh.Compiler.Diagnostics.vc_population
      then
        diags :=
          Diag.errorf ~code:"VC008"
            "claimed vc population [%s] disagrees with recomputed [%s]"
            (String.concat " "
               (Array.to_list
                  (Array.map string_of_int
                     claimed.Compiler.Diagnostics.vc_population)))
            (String.concat " "
               (Array.to_list
                  (Array.map string_of_int
                     fresh.Compiler.Diagnostics.vc_population)))
          :: !diags;
      List.rev !diags
