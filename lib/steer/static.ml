open Clusteer_isa
open Clusteer_uarch

let make ~name ~annot =
  let decide view u =
    let id = u.Uop.id in
    let cluster = annot.Annot.cluster_of.(id) in
    let cluster = if cluster < 0 then 0 else cluster in
    let cluster = if cluster >= view.Policy.clusters then 0 else cluster in
    Policy.dispatch_to cluster
  in
  {
    Policy.name;
    decide;
    repeat = Some (fun _view _uop _k -> true);
    uses_vote_unit = false;
  }
