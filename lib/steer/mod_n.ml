open Clusteer_uarch

let make ?(n = 3) () =
  if n <= 0 then invalid_arg "Mod_n.make: n must be positive";
  let count = ref 0 in
  let decide view _uop =
    let cluster = !count / n mod view.Policy.clusters in
    incr count;
    Policy.dispatch_to cluster
  in
  {
    Policy.name = Printf.sprintf "mod%d" n;
    decide;
    uses_dependence_check = false;
    uses_vote_unit = false;
  }
