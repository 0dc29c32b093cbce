module Json = Clusteer_obs.Json
module Configuration = Clusteer.Configuration
module Config = Clusteer_uarch.Config
module Topology = Clusteer_topo.Topology

type value = Int of int | Float of float

type param = {
  p_name : string;
  p_doc : string;
  p_values : value array;
  p_default : int;
}

type t = {
  s_name : string;
  s_params : param array;
  s_materialize : value array -> Configuration.t * Configuration.params;
  s_machine : (value array -> Config.t) option;
      (* spaces that search over the machine itself (cluster count,
         interconnect) build it from the candidate; [None] means the
         caller's --clusters default machine, which keeps the pinned
         "vc"/"op" spaces bit-identical to their pre-topology runs *)
}

let name t = t.s_name
let params t = t.s_params

let int_param p_name p_doc ~default values =
  let p_values = Array.of_list (List.map (fun v -> Int v) values) in
  let p_default =
    match Array.find_index (fun v -> v = Int default) p_values with
    | Some i -> i
    | None -> invalid_arg (p_name ^ ": default not in menu")
  in
  { p_name; p_doc; p_values; p_default }

let float_param p_name p_doc ~default values =
  let p_values = Array.of_list (List.map (fun v -> Float v) values) in
  let p_default =
    match Array.find_index (fun v -> v = Float default) p_values with
    | Some i -> i
    | None -> invalid_arg (p_name ^ ": default not in menu")
  in
  { p_name; p_doc; p_values; p_default }

let as_int = function Int n -> n | Float _ -> invalid_arg "expected int"
let as_float = function Float f -> f | Int n -> float_of_int n

(* The menus bracket each paper default with the values the paper's
   own sensitivity discussion (or plain engineering judgement) makes
   interesting, kept small enough that the full "vc" grid stays
   enumerable in a test. A knob's menu default is its
   [default_params] value, so a space's default candidate is the
   untuned configuration. *)
let paper = Configuration.default_params

let vc_space =
  {
    s_name = "vc";
    s_params =
      [|
        int_param "virtual_clusters"
          "number of virtual clusters the compiler partitions into"
          ~default:2 [ 2; 4 ];
        int_param "remap_threshold"
          "Vc_map remap hysteresis (in-flight uops)"
          ~default:paper.remap_threshold [ 0; 2; 4; 8; 16; 32 ];
        float_param "crit_min_scale"
          "placement criticality weight (contention-scale floor, 0..1)"
          ~default:paper.crit_min_scale
          [ 0.0; 0.15; 0.3; 0.5; 1.0 ];
        int_param "max_chain" "chain-length cap (uops, 0 = unlimited)"
          ~default:paper.max_chain [ 0; 4; 8; 16; 32 ];
        int_param "region_uops" "superblock region budget (static uops)"
          ~default:paper.region_uops [ 128; 256; 512; 1024 ];
      |];
    s_materialize =
      (fun values ->
        let vcs = as_int values.(0) in
        ( Configuration.Vc { virtual_clusters = vcs },
          {
            paper with
            remap_threshold = as_int values.(1);
            crit_min_scale = as_float values.(2);
            max_chain = as_int values.(3);
            region_uops = as_int values.(4);
          } ));
    s_machine = None;
  }

let op_space =
  {
    s_name = "op";
    s_params =
      [|
        int_param "stall_threshold"
          "OP stall-over-steer bound (free IQ slots)"
          ~default:paper.stall_threshold [ 8; 16; 24; 36; 48; 64 ];
        int_param "imbalance_limit"
          "OP imbalance override (in-flight uop difference)"
          ~default:paper.imbalance_limit [ 50; 100; 200; 400; 800 ];
      |];
    s_materialize =
      (fun values ->
        ( Configuration.Op,
          {
            paper with
            stall_threshold = as_int values.(0);
            imbalance_limit = as_int values.(1);
          } ));
    s_machine = None;
  }

(* Machine-level space: the §4 question (map 2 virtual clusters onto 4
   physical, or 4 onto 4?) crossed with the interconnect. The kind
   codes build a shape that scales with the chosen cluster count:
   mesh is (clusters/2)x2, hier is 2 groups of clusters/2. *)
let topo_kind ~clusters = function
  | 0 -> Topology.p2p ~clusters ()
  | 1 -> Topology.ring ~clusters ()
  | 2 -> Topology.mesh ~cols:(clusters / 2) ~rows:2 ()
  | 3 -> Topology.hier ~groups:2 ~group_size:(clusters / 2) ()
  | k -> invalid_arg (Printf.sprintf "topo space: unknown kind code %d" k)

let topo_space =
  {
    s_name = "topo";
    s_params =
      [|
        int_param "clusters" "physical clusters in the machine" ~default:4
          [ 2; 4 ];
        int_param "virtual_clusters"
          "compiler partition arity (2->N vs N->N mapping)" ~default:2
          [ 2; 4 ];
        int_param "topology"
          "interconnect kind: 0=p2p, 1=ring, 2=mesh (clusters/2)x2, \
           3=hier 2x(clusters/2)"
          ~default:0 [ 0; 1; 2; 3 ];
        int_param "remap_threshold"
          "Vc_map remap hysteresis (in-flight uops)"
          ~default:paper.remap_threshold [ 2; 8; 32 ];
      |];
    s_materialize =
      (fun values ->
        ( Configuration.Vc { virtual_clusters = as_int values.(1) },
          {
            paper with
            remap_threshold = as_int values.(3);
          } ));
    s_machine =
      Some
        (fun values ->
          let clusters = as_int values.(0) in
          {
            (Config.default ~clusters) with
            Config.topology = topo_kind ~clusters (as_int values.(2));
          });
  }

let spaces = [ vc_space; op_space; topo_space ]

let find name =
  let name = String.lowercase_ascii name in
  match List.find_opt (fun s -> s.s_name = name) spaces with
  | Some s -> Ok s
  | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown parameter space %S (available: %s)" name
              (String.concat ", " (List.map (fun s -> s.s_name) spaces))))

let dims t = Array.map (fun p -> Array.length p.p_values) t.s_params
let cardinality t = Array.fold_left ( * ) 1 (dims t)
let default_candidate t = Array.map (fun p -> p.p_default) t.s_params

let nth t i =
  if i < 0 || i >= cardinality t then
    invalid_arg (Printf.sprintf "Param_space.nth: %d out of range" i);
  let n = Array.length t.s_params in
  let c = Array.make n 0 in
  let rem = ref i in
  for k = n - 1 downto 0 do
    let d = Array.length t.s_params.(k).p_values in
    c.(k) <- !rem mod d;
    rem := !rem / d
  done;
  c

let validate t candidate =
  if Array.length candidate <> Array.length t.s_params then
    Error
      (Printf.sprintf "candidate has %d entries for %d parameters"
         (Array.length candidate) (Array.length t.s_params))
  else
    let bad = ref None in
    Array.iteri
      (fun k idx ->
        let d = Array.length t.s_params.(k).p_values in
        if !bad = None && (idx < 0 || idx >= d) then
          bad :=
            Some
              (Printf.sprintf "%s index %d out of range [0, %d)"
                 t.s_params.(k).p_name idx d))
      candidate;
    match !bad with None -> Ok () | Some msg -> Error msg

let values t candidate =
  Array.mapi (fun k idx -> t.s_params.(k).p_values.(idx)) candidate

let bindings t candidate =
  Array.to_list
    (Array.mapi
       (fun k idx -> (t.s_params.(k).p_name, t.s_params.(k).p_values.(idx)))
       candidate)

let materialize t candidate =
  (match validate t candidate with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Param_space.materialize: " ^ msg));
  t.s_materialize (values t candidate)

let machine t ~clusters candidate =
  (match validate t candidate with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Param_space.machine: " ^ msg));
  match t.s_machine with
  | None -> Config.default ~clusters
  | Some f -> f (values t candidate)

let value_to_string = function
  | Int n -> string_of_int n
  | Float f ->
      (* shortest round-trip decimal, no trailing ".": 0.15 not 0.150000 *)
      let s = Printf.sprintf "%.12g" f in
      s

let label t candidate =
  String.concat " "
    (List.map
       (fun (n, v) -> Printf.sprintf "%s=%s" n (value_to_string v))
       (bindings t candidate))

let value_to_json = function Int n -> Json.Int n | Float f -> Json.Float f

let candidate_to_json t candidate =
  Json.Obj
    [
      ( "indices",
        Json.List (Array.to_list (Array.map (fun i -> Json.Int i) candidate))
      );
      ( "bindings",
        Json.Obj
          (List.map (fun (n, v) -> (n, value_to_json v)) (bindings t candidate))
      );
    ]

let candidate_of_json t json =
  match Option.bind (Json.member "indices" json) Json.to_list with
  | None -> Error "candidate: missing \"indices\" array"
  | Some items -> (
      let indices =
        List.map (fun item -> Option.value ~default:(-1) (Json.to_int item))
          items
      in
      let candidate = Array.of_list indices in
      match validate t candidate with
      | Ok () -> Ok candidate
      | Error msg -> Error ("candidate: " ^ msg))
