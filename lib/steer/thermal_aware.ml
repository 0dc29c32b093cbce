open Clusteer_uarch

let make ?(decay = 0.999) ?(weight = 0.5) () =
  if decay <= 0.0 || decay >= 1.0 then
    invalid_arg "Thermal_aware.make: decay must be in (0,1)";
  let heat = ref [||] in
  let decide view _uop =
    let clusters = view.Policy.clusters in
    if Array.length !heat <> clusters then heat := Array.make clusters 0.0;
    let h = !heat in
    for c = 0 to clusters - 1 do
      h.(c) <- h.(c) *. decay
    done;
    let best = ref 0 and best_score = ref infinity in
    for c = 0 to clusters - 1 do
      let score = float_of_int (view.Policy.inflight c) +. (weight *. h.(c)) in
      if score < !best_score then begin
        best := c;
        best_score := score
      end
    done;
    h.(!best) <- h.(!best) +. 1.0;
    Policy.dispatch_to !best
  in
  {
    Policy.name = "thermal";
    decide;
    uses_dependence_check = false;
    uses_vote_unit = false;
  }
