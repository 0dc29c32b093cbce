type algo = Grid | Random | Hill

let algo_to_string = function
  | Grid -> "grid"
  | Random -> "random"
  | Hill -> "hill"

let algo_of_string s =
  match String.lowercase_ascii s with
  | "grid" -> Ok Grid
  | "random" -> Ok Random
  | "hill" -> Ok Hill
  | s ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown search algorithm %S (available: grid, random, hill)" s))

(* SplitMix64 ([Clusteer_util.Rng], the generator the harness derives
   trace seeds from): trivially seedable, full-period, and identical on
   every platform — which is what makes "same seed => same champion" a
   testable contract. *)
module Rng = Clusteer_util.Rng

let random_candidate r dims = Array.map (fun d -> Rng.int r d) dims

let run space ~algo ~seed ~max_evals ~eval =
  if max_evals <= 0 then invalid_arg "Search.run: max_evals must be positive";
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let evaluated () = Hashtbl.length seen in
  let try_eval candidate =
    if Hashtbl.mem seen candidate || evaluated () >= max_evals then None
    else begin
      let score = eval candidate in
      Hashtbl.replace seen candidate score;
      out := (candidate, score) :: !out;
      Some score
    end
  in
  (match algo with
  | Grid ->
      let budget = min max_evals (Param_space.cardinality space) in
      for i = 0 to budget - 1 do
        ignore (try_eval (Param_space.nth space i))
      done
  | Random ->
      let r = Rng.create seed in
      let dims = Param_space.dims space in
      let budget = min max_evals (Param_space.cardinality space) in
      ignore (try_eval (Param_space.default_candidate space));
      (* Draw-and-skip sampling: the attempt cap bounds the rejection
         loop when the budget approaches the space's cardinality. *)
      let attempts = ref 0 in
      let max_attempts = 64 * budget in
      while evaluated () < budget && !attempts < max_attempts do
        incr attempts;
        ignore (try_eval (random_candidate r dims))
      done;
      (* If rejection sampling starved (tiny space), finish by scan. *)
      let i = ref 0 in
      while evaluated () < budget && !i < Param_space.cardinality space do
        ignore (try_eval (Param_space.nth space !i));
        incr i
      done
  | Hill ->
      let r = Rng.create seed in
      let dims = Param_space.dims space in
      let budget = min max_evals (Param_space.cardinality space) in
      let score_of c = Hashtbl.find_opt seen c in
      let start = Param_space.default_candidate space in
      ignore (try_eval start);
      let current = ref start in
      let finished = ref false in
      while (not !finished) && evaluated () < budget do
        let base =
          match score_of !current with Some s -> s | None -> neg_infinity
        in
        (* Probe every ±1 neighbour of the current point. *)
        let best_neighbour = ref None in
        Array.iteri
          (fun k _ ->
            List.iter
              (fun delta ->
                let idx = !current.(k) + delta in
                if idx >= 0 && idx < dims.(k) then begin
                  let cand = Array.copy !current in
                  cand.(k) <- idx;
                  let score =
                    match score_of cand with
                    | Some s -> Some s
                    | None -> try_eval cand
                  in
                  match score with
                  | Some s -> (
                      match !best_neighbour with
                      | Some (_, best) when best >= s -> ()
                      | _ -> best_neighbour := Some (cand, s))
                  | None -> ()
                end)
              [ -1; 1 ])
          !current;
        match !best_neighbour with
        | Some (cand, s) when s > base -> current := cand
        | _ ->
            (* Converged (or out of budget): seeded restart from an
               unseen candidate, give up after a bounded number of
               draws. *)
            if evaluated () >= budget then finished := true
            else begin
              let restart = ref None in
              let attempts = ref 0 in
              while !restart = None && !attempts < 64 * budget do
                incr attempts;
                let cand = random_candidate r dims in
                if not (Hashtbl.mem seen cand) then restart := Some cand
              done;
              match !restart with
              | Some cand ->
                  ignore (try_eval cand);
                  current := cand
              | None -> finished := true
            end
      done);
  List.rev !out
