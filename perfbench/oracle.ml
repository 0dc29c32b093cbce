(* Reference digests of simulated statistics.

   [digests.json] holds, per sweep workload and trace salt, one digest
   per (work unit x configuration) [Stats.t] in run order, recorded
   together with the micro-op budget it was made at. A run compares
   every result it produces against them; any difference counts as a
   failed operation. *)

module Json = Clusteer_obs.Json
module Stats = Clusteer_uarch.Stats

let salts = 16
let default_path = Filename.concat "perfbench" "digests.json"

let digest s =
  String.sub
    (Digest.to_hex (Digest.string (Json.to_string (Stats.to_json s))))
    0 16

let fail fmt = Printf.ksprintf failwith fmt

(* The digests for [workload] at [salt], or a [Failure] when the file
   does not pin this workload at [uops] micro-ops. *)
let load ~path ~workload ~uops ~salt =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc =
    match Json.of_string text with
    | Ok d -> d
    | Error e -> fail "%s: %s" path e
  in
  let ( let* ) o f =
    match o with Some v -> f v | None -> fail "%s: no digests for %s" path workload
  in
  let* entry = Json.member workload doc in
  let* pinned = Option.bind (Json.member "uops" entry) Json.to_int in
  if pinned <> uops then
    fail "%s: %s digests were made at %d uops, not %d" path workload pinned uops;
  let* table = Option.bind (Json.member "salts" entry) Json.to_list in
  let* row = Option.bind (List.nth_opt table salt) Json.to_list in
  List.map (fun d -> match Json.to_str d with Some s -> s | None -> fail "%s: bad digest" path) row

(* Number of results that do not match [expected] (a length mismatch
   counts every missing or extra result). *)
let mismatches expected stats =
  let rec go acc e g =
    match (e, g) with
    | [], rest | rest, [] -> acc + List.length rest
    | d :: e', x :: g' -> go (if String.equal d x then acc else acc + 1) e' g'
  in
  go 0 expected (List.map digest stats)

let write ~path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.output oc
        (Json.Obj
           (List.map
              (fun (workload, uops, rows) ->
                ( workload,
                  Json.Obj
                    [
                      ("uops", Json.Int uops);
                      ( "salts",
                        Json.List
                          (List.map
                             (fun row ->
                               Json.List
                                 (List.map (fun s -> Json.Str (digest s)) row))
                             rows) );
                    ] ))
              entries));
      output_char oc '\n')
