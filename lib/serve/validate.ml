module Profile = Clusteer_workloads.Profile
module Spec2000 = Clusteer_workloads.Spec2000
module Synth = Clusteer_workloads.Synth
module Checker = Clusteer_analysis.Checker
module Diag = Clusteer_isa.Diag

(* The verdict depends on exactly these request fields (uops, warmup,
   seed and phase change the dynamic run, not the static program or
   its annotation), so memoize on their canonical rendering. *)
let memo_key (req : Request.t) =
  let o = req.Request.overrides in
  let opt_f = function None -> "-" | Some f -> Printf.sprintf "%h" f in
  let opt_i = function None -> "-" | Some i -> string_of_int i in
  Printf.sprintf "%s|%s|%d|%s,%s,%s,%s" req.Request.workload
    (Clusteer.Configuration.name req.Request.policy)
    req.Request.clusters
    (opt_f o.Request.fp_ratio)
    (opt_f o.Request.mem_ratio)
    (opt_i o.Request.ilp)
    (opt_i o.Request.footprint_kb)

let verdicts : (string, (unit, string) result) Hashtbl.t = Hashtbl.create 16

let summarize diags =
  let gating d =
    match d.Diag.severity with
    | Diag.Error | Diag.Warning -> true
    | Diag.Info -> false
  in
  let n = Diag.count Diag.Error diags + Diag.count Diag.Warning diags in
  match List.find_opt gating diags with
  | None -> "request failed validation"
  | Some d ->
      let first = Format.asprintf "%a" Diag.pp d in
      if n > 1 then Printf.sprintf "%s (+%d more finding(s))" first (n - 1)
      else first

let validate (req : Request.t) =
  match Spec2000.find req.Request.workload with
  | exception Not_found -> Ok () (* resolution answers with Error_reply *)
  | profile -> (
      match
        let profile = Request.apply_overrides profile req.Request.overrides in
        Profile.validate profile;
        profile
      with
      | exception Invalid_argument _ -> Ok () (* ditto *)
      | profile -> (
          match
            let w = Synth.build profile in
            let program = w.Synth.program and likely = w.Synth.likely in
            let params = Clusteer.Configuration.default_params in
            let annot, _policy =
              Clusteer.Configuration.prepare req.Request.policy ~program
                ~likely ~clusters:req.Request.clusters ~params ()
            in
            let config =
              Clusteer_uarch.Config.default ~clusters:req.Request.clusters
            in
            let target =
              Checker.target
                ~label:(req.Request.workload ^ "/"
                       ^ Clusteer.Configuration.name req.Request.policy)
                ~region_uops:params.region_uops ~max_chain:params.max_chain
                ~slack_threshold:params.slack_threshold ~program ~likely
                ~annot ~config ()
            in
            Checker.run target
          with
          | exception e ->
              Error
                (Printf.sprintf "compilation failed: %s" (Printexc.to_string e))
          | diags ->
              (* The server gates strictly: a warning that a human might
                 wave through interactively still wastes a worker here. *)
              if Checker.failed ~strict:true diags then
                Error (summarize diags)
              else Ok ()))

let check req =
  let key = memo_key req in
  match Hashtbl.find_opt verdicts key with
  | Some verdict -> verdict
  | None ->
      let verdict = validate req in
      Hashtbl.replace verdicts key verdict;
      verdict

let install () = Request.check_hook := check
