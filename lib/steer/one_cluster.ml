open Clusteer_uarch

let make () =
  {
    Policy.name = "one-cluster";
    decide = (fun _view _uop -> Policy.dispatch_to 0);
    repeat = Some (fun _view _uop _k -> true);
    uses_vote_unit = false;
  }
