open Clusteer_isa
open Clusteer_ddg

(* Single source of truth for chain structure: a chain starts when the
   VC id changes (paper Figure 3) or, under a positive [max_chain],
   when the current chain has already reached the cap. Unassigned
   micro-ops (vc = -1) break runs and never start chains. *)
let iter_chain_starts ~max_chain ~vc_of (region : Region.t) f =
  let prev_vc = ref (-2) and len = ref 0 in
  Array.iter
    (fun (u : Uop.t) ->
      let id = u.Uop.id in
      let vc = vc_of id in
      let start =
        vc <> -1 && (vc <> !prev_vc || (max_chain > 0 && !len >= max_chain))
      in
      if vc = -1 then len := 0 else if start then len := 1 else incr len;
      f id ~vc ~start;
      prev_vc := vc)
    region.Region.uops

let mark_region ~max_chain annot (region : Region.t) =
  iter_chain_starts ~max_chain
    ~vc_of:(fun id -> annot.Annot.vc_of.(id))
    region
    (fun id ~vc:_ ~start -> annot.Annot.leader.(id) <- start)

let chains_of_region ~max_chain annot (region : Region.t) =
  let chains = ref [] and current = ref [] in
  iter_chain_starts ~max_chain
    ~vc_of:(fun id -> annot.Annot.vc_of.(id))
    region
    (fun id ~vc ~start ->
      if (start || vc = -1) && !current <> [] then begin
        chains := List.rev !current :: !chains;
        current := []
      end;
      if vc <> -1 then current := id :: !current);
  if !current <> [] then chains := List.rev !current :: !chains;
  List.rev !chains
