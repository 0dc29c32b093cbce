open Clusteer_isa
module Compiler = Clusteer_compiler
module Uarch = Clusteer_uarch
module Json = Clusteer_obs.Json

type target = {
  label : string;
  program : Program.t;
  likely : int -> int option;
  annot : Annot.t;
  config : Uarch.Config.t;
  region_uops : int;
  max_chain : int;
  claimed : Compiler.Diagnostics.t option;
  critical : bool array option;
  slack_threshold : int;
  events : Dyn_check.event list option;
}

let target ?label ~region_uops ~max_chain ?claimed ?critical ~slack_threshold
    ?events ~program ~likely ~annot ~config () =
  {
    label = Option.value label ~default:program.Program.name;
    program;
    likely;
    annot;
    config;
    region_uops;
    max_chain;
    claimed;
    critical;
    slack_threshold;
    events;
  }

type pass = {
  name : string;
  applies : target -> bool;
  run : target -> Diag.t list;
}

let is_virtual t = t.annot.Annot.virtual_clusters > 0

let is_static t =
  (not (is_virtual t))
  && Array.exists (fun c -> c <> -1) t.annot.Annot.cluster_of

let ir_pass =
  { name = "ir"; applies = (fun _ -> true); run = (fun t -> Ir_check.check t.program) }

let vc_pass =
  {
    name = "vc";
    applies = is_virtual;
    run =
      (fun t ->
        let structural =
          Vc_check.check ~program:t.program ~likely:t.likely ~annot:t.annot
            ~region_uops:t.region_uops ~max_chain:t.max_chain
        in
        let summary =
          match t.claimed with
          | None -> []
          | Some claimed ->
              Vc_check.check_summary ~program:t.program ~likely:t.likely
                ~annot:t.annot ~claimed ~region_uops:t.region_uops
                ~max_chain:t.max_chain
        in
        structural @ summary);
  }

let place_pass =
  {
    name = "place";
    applies = (fun t -> is_static t || t.critical <> None);
    run =
      (fun t ->
        let placement =
          if is_static t then
            Place_check.check ~program:t.program ~likely:t.likely
              ~annot:t.annot ~config:t.config ~region_uops:t.region_uops
          else []
        in
        let crit =
          match t.critical with
          | None -> []
          | Some critical ->
              Place_check.check_crit ~program:t.program ~likely:t.likely
                ~critical ~region_uops:t.region_uops
                ~slack_threshold:t.slack_threshold
        in
        placement @ crit);
  }

let dyn_pass =
  {
    name = "dyn";
    applies = (fun t -> t.events <> None && is_virtual t);
    run =
      (fun t ->
        match t.events with
        | None -> []
        | Some events ->
            Dyn_check.check ~annot:t.annot
              ~clusters:t.config.Uarch.Config.clusters events);
  }

let topo_pass =
  {
    name = "topo";
    applies = (fun _ -> true);
    run =
      (fun t ->
        Topo_check.check ~topology:t.config.Uarch.Config.topology
          ~clusters:t.config.Uarch.Config.clusters ());
  }

let liv_pass =
  {
    name = "liv";
    applies = (fun _ -> true);
    run =
      (fun t ->
        Liveness.check ~int_budget:t.config.Uarch.Config.int_regfile
          ~fp_budget:t.config.Uarch.Config.fp_regfile t.program);
  }

let cost_pass =
  {
    name = "cost";
    applies = (fun _ -> true);
    run =
      (fun t ->
        let model, errors =
          Cost_model.analyze ~program:t.program ~annot:t.annot
            ~topology:t.config.Uarch.Config.topology
            ~clusters:t.config.Uarch.Config.clusters ()
        in
        errors @ Cost_model.check model);
  }

(* Pass name -> the stable codes it can emit. The compiler's
   partition-quality findings and the drift checker share the
   vocabulary, so they register here too even though they are not
   checker passes. *)
let code_table =
  [
    ("ir", Ir_check.codes);
    ("vc", Vc_check.codes);
    ("place", Place_check.codes);
    ("dyn", Dyn_check.codes);
    ("topo", Topo_check.codes);
    ("liv", Liveness.codes);
    ("cost", Cost_model.codes);
    ("drift", Dyn_check.drift_codes);
    ("compiler", Compiler.Diagnostics.codes);
    ("meta", Meta_check.codes);
  ]

let meta_pass =
  {
    name = "meta";
    applies = (fun _ -> true);
    run = (fun _ -> Meta_check.check code_table);
  }

let passes =
  [ ir_pass; liv_pass; vc_pass; place_pass; cost_pass; dyn_pass; topo_pass;
    meta_pass ]

let select names =
  match names with
  | [] -> Ok passes
  | names ->
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match List.find_opt (fun p -> p.name = n) passes with
            | Some p -> resolve (p :: acc) rest
            | None -> Error (Printf.sprintf "unknown pass %S" n))
      in
      resolve [] names

let run ?(passes = passes) target =
  List.concat_map
    (fun p -> if p.applies target then p.run target else [])
    passes
  |> List.sort Diag.compare

let failed ~strict diags =
  Diag.count Diag.Error diags > 0
  || (strict && Diag.count Diag.Warning diags > 0)

let report_json ~label diags =
  Json.Obj
    [
      ("target", Json.Str label);
      ("errors", Json.Int (Diag.count Diag.Error diags));
      ("warnings", Json.Int (Diag.count Diag.Warning diags));
      ("infos", Json.Int (Diag.count Diag.Info diags));
      ("diagnostics", Json.List (List.map Diag.to_json diags));
    ]
