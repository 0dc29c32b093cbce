open Clusteer_uarch

let make () =
  {
    Policy.name = "one-cluster";
    decide = (fun _view _uop -> Policy.dispatch_to 0);
    uses_vote_unit = false;
  }
