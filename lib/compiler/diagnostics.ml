open Clusteer_isa
open Clusteer_ddg

type t = {
  static_uops : int;
  regions : int;
  chains : int;
  mean_chain_length : float;
  max_chain_length : int;
  vc_population : int array;
  cross_vc_edges : int;
  intra_vc_edges : int;
}

let of_annot ~program ~likely ~annot ~region_uops ~max_chain =
  if annot.Annot.virtual_clusters <= 0 then
    invalid_arg "Diagnostics.of_annot: annotation has no virtual clusters";
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  let vc_population = Array.make annot.Annot.virtual_clusters 0 in
  Array.iter
    (fun vc -> if vc >= 0 then vc_population.(vc) <- vc_population.(vc) + 1)
    annot.Annot.vc_of;
  let chain_lengths =
    List.concat_map
      (fun region ->
        List.map List.length (Chains.chains_of_region ~max_chain annot region))
      regions
  in
  let chains = List.length chain_lengths in
  let total_len = List.fold_left ( + ) 0 chain_lengths in
  let cross = ref 0 and intra = ref 0 in
  List.iter
    (fun region ->
      let vc_of node = annot.Annot.vc_of.(region.Region.uops.(node).Uop.id) in
      Ddg.iter_edges (Ddg.of_region region) (fun src dst ->
          if vc_of src = vc_of dst then incr intra else incr cross))
    regions;
  {
    static_uops = program.Program.uop_count;
    regions = List.length regions;
    chains;
    mean_chain_length =
      (if chains = 0 then 0.0 else float_of_int total_len /. float_of_int chains);
    max_chain_length = List.fold_left max 0 chain_lengths;
    vc_population;
    cross_vc_edges = !cross;
    intra_vc_edges = !intra;
  }

let to_json t =
  let module Json = Clusteer_obs.Json in
  Json.Obj
    [
      ("static_uops", Json.Int t.static_uops);
      ("regions", Json.Int t.regions);
      ("chains", Json.Int t.chains);
      ("mean_chain_length", Json.Float t.mean_chain_length);
      ("max_chain_length", Json.Int t.max_chain_length);
      ( "vc_population",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.Int n) t.vc_population)) );
      ("cross_vc_edges", Json.Int t.cross_vc_edges);
      ("intra_vc_edges", Json.Int t.intra_vc_edges);
    ]

let codes = [ "CP001"; "CP002"; "CP003"; "CP004" ]

let findings t =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iteri
    (fun vc count ->
      if count = 0 then
        add (Diag.infof ~code:"CP001" "virtual cluster %d holds no uops" vc))
    t.vc_population;
  let nonzero = Array.to_list t.vc_population |> List.filter (fun n -> n > 0) in
  (match nonzero with
  | _ :: _ :: _ ->
      let lo = List.fold_left min max_int nonzero in
      let hi = List.fold_left max 0 nonzero in
      if hi > 4 * lo then
        add
          (Diag.infof ~code:"CP002"
             "vc population imbalance %d:%d exceeds 4:1" hi lo)
  | _ -> ());
  let total = t.cross_vc_edges + t.intra_vc_edges in
  if total > 0 && t.cross_vc_edges * 2 > total then
    add
      (Diag.infof ~code:"CP003"
         "%d of %d dependence edges cross virtual clusters (every crossing \
          is a potential copy)"
         t.cross_vc_edges total);
  if t.chains > 0 && t.mean_chain_length < 2.0 then
    add
      (Diag.infof ~code:"CP004"
         "mean chain length %.2f leaves little for the leader mechanism to \
          amortize"
         t.mean_chain_length);
  List.rev !diags

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%d static micro-ops in %d regions@,\
     %d chains, mean length %.1f, max %d@,\
     vc population: %a@,\
     dependence edges: %d intra-vc, %d cross-vc (%.0f%% cut)@]"
    t.static_uops t.regions t.chains t.mean_chain_length t.max_chain_length
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
       Format.pp_print_int)
    (Array.to_list t.vc_population)
    t.intra_vc_edges t.cross_vc_edges
    (let total = t.intra_vc_edges + t.cross_vc_edges in
     if total = 0 then 0.0
     else 100.0 *. float_of_int t.cross_vc_edges /. float_of_int total)
