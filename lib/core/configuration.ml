module Compiler = Clusteer_compiler
module Steer = Clusteer_steer

type t =
  | Op
  | One_cluster
  | Ob
  | Rhop
  | Vc of { virtual_clusters : int }
  | Op_parallel
  | Dep
  | Crit

let name = function
  | Op -> "op"
  | One_cluster -> "one-cluster"
  | Ob -> "ob"
  | Rhop -> "rhop"
  | Vc { virtual_clusters } -> Printf.sprintf "vc%d" virtual_clusters
  | Op_parallel -> "op-parallel"
  | Dep -> "dep"
  | Crit -> "crit"

let of_name s =
  match String.lowercase_ascii s with
  | "op" -> Ok Op
  | "one-cluster" | "one" -> Ok One_cluster
  | "ob" -> Ok Ob
  | "rhop" -> Ok Rhop
  | "op-parallel" -> Ok Op_parallel
  | "dep" -> Ok Dep
  | "crit" -> Ok Crit
  | s when String.length s > 2 && String.sub s 0 2 = "vc" -> (
      match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
      | Some v when v > 0 -> Ok (Vc { virtual_clusters = v })
      | _ -> Error (`Msg "vcN needs a positive N"))
  | _ -> Error (`Msg (Printf.sprintf "unknown configuration %S" s))

let description = function
  | Op -> "Occupancy-aware steering [15]"
  | One_cluster -> "Every instruction goes to one cluster"
  | Ob -> "Static-placement dynamic-issue operation-based steering [19]"
  | Rhop -> "Region-based hierarchical operation partition [8]"
  | Vc { virtual_clusters } ->
      Printf.sprintf "Hybrid steering based on virtual clustering (%d VCs)"
        virtual_clusters
  | Op_parallel -> "OP with parallel (rename-style) steering decisions (2.1)"
  | Dep -> "Dependence-based steering without stalling (Canal et al.)"
  | Crit -> "Criticality-aware steering (after Salverda-Zilles)"

type params = {
  remap_threshold : int;
  stall_threshold : int;
  imbalance_limit : int;
  region_uops : int;
  issue_width : float;
  comm_latency : float;
  crit_min_scale : float;
  max_chain : int;
  slack_threshold : int;
  topology : Clusteer_topo.Topology.t option;
}

let default_params =
  {
    remap_threshold = 8;
    stall_threshold = 36;
    imbalance_limit = 200;
    region_uops = 512;
    issue_width = 2.0;
    comm_latency = 1.0;
    crit_min_scale = 0.15;
    max_chain = 0;
    slack_threshold = 0;
    topology = None;
  }

let table3 ~clusters =
  if clusters <= 2 then [ Op; One_cluster; Ob; Rhop; Vc { virtual_clusters = 2 } ]
  else
    [
      Op;
      Ob;
      Rhop;
      Vc { virtual_clusters = clusters };
      Vc { virtual_clusters = 2 };
    ]

let prepare t ~program ~likely ~clusters ?(params = default_params) ?annot
    ?registry () =
  let region_uops = params.region_uops in
  let annot =
    match annot with
    | Some annot -> annot
    | None ->
        let scheme =
          match t with
          | Op | One_cluster | Op_parallel | Dep | Crit -> Compiler.Passes.Sw_none
          | Ob -> Compiler.Passes.Sw_ob
          | Rhop -> Compiler.Passes.Sw_rhop { seed = 1 }
          | Vc { virtual_clusters } -> Compiler.Passes.Sw_vc { virtual_clusters }
        in
        Compiler.Passes.run scheme ~program ~likely ~clusters ~region_uops
          ~issue_width:params.issue_width ~comm_latency:params.comm_latency
          ~crit_min_scale:params.crit_min_scale ~max_chain:params.max_chain ()
  in
  let policy =
    match t with
    | Op ->
        Steer.Op.make ~stall_threshold:params.stall_threshold
          ~imbalance_limit:params.imbalance_limit ?registry
          ?topology:params.topology ()
    | Op_parallel ->
        Steer.Op_parallel.make ~stall_threshold:params.stall_threshold
          ~imbalance_limit:params.imbalance_limit ()
    | One_cluster -> Steer.One_cluster.make ()
    | Ob -> Steer.Static.make ~name:"ob" ~annot
    | Rhop -> Steer.Static.make ~name:"rhop" ~annot
    | Vc _ ->
        Steer.Vc_map.make ~remap_threshold:params.remap_threshold ?registry
          ?topology:params.topology ~annot ~clusters ()
    | Dep -> Steer.Dep.make ?registry ()
    | Crit ->
        let critical =
          Compiler.Crit_hints.compute ~program ~likely ~region_uops
            ~slack_threshold:params.slack_threshold ()
        in
        Steer.Crit.make ~critical ()
  in
  (annot, policy)
