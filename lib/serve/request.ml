module Json = Clusteer_obs.Json
module Spec2000 = Clusteer_workloads.Spec2000

type overrides = {
  fp_ratio : float option;
  mem_ratio : float option;
  ilp : int option;
  footprint_kb : int option;
}

let no_overrides =
  { fp_ratio = None; mem_ratio = None; ilp = None; footprint_kb = None }

type t = {
  workload : string;
  phase : int;
  clusters : int;
  policy : Clusteer.Configuration.t;
  uops : int;
  warmup : int option;
  seed : int option;
  overrides : overrides;
}

(* The short suite names ("mcf") and the paper's trace-point names
   ("181.mcf") must hash identically, so resolve at construction. An
   unknown name is kept verbatim; execution rejects it later. *)
let canonical_workload name =
  match Spec2000.find name with
  | profile -> profile.Clusteer_workloads.Profile.name
  | exception Not_found -> name

let make ~workload ?(phase = 0) ?(clusters = 2)
    ?(policy = Clusteer.Configuration.Vc { virtual_clusters = 2 })
    ?(uops = 20_000) ?warmup ?seed ?(overrides = no_overrides) () =
  {
    workload = canonical_workload workload;
    phase;
    clusters;
    policy;
    uops;
    warmup;
    seed;
    overrides;
  }

let apply_overrides (p : Clusteer_workloads.Profile.t) o =
  let module Profile = Clusteer_workloads.Profile in
  let p =
    match o.fp_ratio with
    | Some v -> { p with Profile.fp_ratio = v }
    | None -> p
  in
  let p =
    match o.mem_ratio with
    | Some v -> { p with Profile.mem_ratio = v }
    | None -> p
  in
  let p = match o.ilp with Some v -> { p with Profile.ilp = v } | None -> p in
  match o.footprint_kb with
  | Some v -> { p with Profile.footprint_kb = v }
  | None -> p

(* ---- admission check --------------------------------------------- *)

(* The hook indirection keeps this module free of a dependency on the
   static analyzer: [Validate.install] (which does depend on
   [clusteer_analysis]) replaces the default accept-everything hook
   when the server starts. *)
let check_hook : (t -> (unit, string) result) ref = ref (fun _ -> Ok ())
let check t = !check_hook t

(* ---- canonical encoding ------------------------------------------ *)

(* Floats travel as their IEEE-754 bit pattern: integer-exact, no
   decimal formatting ambiguity, and [Json.to_string] never sees a
   [Float] node on the canonical path. *)
let float_json f = Json.Str (Printf.sprintf "f64:%016Lx" (Int64.bits_of_float f))

let opt enc = function None -> Json.Null | Some v -> enc v

let overrides_json o =
  Json.Obj
    [
      ("fp_ratio", opt float_json o.fp_ratio);
      ("mem_ratio", opt float_json o.mem_ratio);
      ("ilp", opt (fun n -> Json.Int n) o.ilp);
      ("footprint_kb", opt (fun n -> Json.Int n) o.footprint_kb);
    ]

let canonical t =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("workload", Json.Str t.workload);
      ("phase", Json.Int t.phase);
      ("clusters", Json.Int t.clusters);
      ("policy", Json.Str (Clusteer.Configuration.name t.policy));
      ("uops", Json.Int t.uops);
      ("warmup", opt (fun n -> Json.Int n) t.warmup);
      ("seed", opt (fun n -> Json.Int n) t.seed);
      ("overrides", overrides_json t.overrides);
    ]

let canonical_string t = Json.to_string (canonical t)

let hash t =
  let s = canonical_string t in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001B3L)
    s;
  Printf.sprintf "%016Lx" !h

(* ---- decoding ---------------------------------------------------- *)

let ( let* ) = Result.bind

let decode_float field = function
  | Json.Float f -> Ok (Some f)
  | Json.Int n -> Ok (Some (float_of_int n))
  | Json.Str s
    when String.length s = 20 && String.sub s 0 4 = "f64:" -> (
      match Int64.of_string_opt ("0x" ^ String.sub s 4 16) with
      | Some bits -> Ok (Some (Int64.float_of_bits bits))
      | None -> Error (Printf.sprintf "%s: bad f64 bit pattern %S" field s))
  | Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "%s: expected a number or f64:<hex>" field)

let decode_int field = function
  | Json.Int n -> Ok (Some n)
  | Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "%s: expected an integer" field)

let check_known ~known fields =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
  | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
  | None -> Ok ()

let field name fields = List.assoc_opt name fields

let decode_overrides = function
  | None | Some Json.Null -> Ok no_overrides
  | Some (Json.Obj fields) ->
      let* () =
        check_known
          ~known:[ "fp_ratio"; "mem_ratio"; "ilp"; "footprint_kb" ]
          fields
      in
      let f name = Option.value ~default:Json.Null (field name fields) in
      let* fp_ratio = decode_float "overrides.fp_ratio" (f "fp_ratio") in
      let* mem_ratio = decode_float "overrides.mem_ratio" (f "mem_ratio") in
      let* ilp = decode_int "overrides.ilp" (f "ilp") in
      let* footprint_kb = decode_int "overrides.footprint_kb" (f "footprint_kb") in
      Ok { fp_ratio; mem_ratio; ilp; footprint_kb }
  | Some _ -> Error "overrides: expected an object"

let of_json = function
  | Json.Obj fields ->
      let* () =
        check_known
          ~known:
            [
              "v"; "workload"; "phase"; "clusters"; "policy"; "uops";
              "warmup"; "seed"; "overrides";
            ]
          fields
      in
      let* () =
        match field "v" fields with
        | None | Some (Json.Int 1) -> Ok ()
        | Some v ->
            Error (Printf.sprintf "unsupported schema version %s" (Json.to_string v))
      in
      let* workload =
        match field "workload" fields with
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error "workload: expected a string"
        | None -> Error "workload: required"
      in
      let int_with ~default name =
        match field name fields with
        | None -> Ok default
        | Some v ->
            let* n = decode_int name v in
            Ok (Option.value ~default n)
      in
      let* phase = int_with ~default:0 "phase" in
      let* clusters = int_with ~default:2 "clusters" in
      let* uops = int_with ~default:20_000 "uops" in
      let* warmup =
        match field "warmup" fields with
        | None -> Ok None
        | Some v -> decode_int "warmup" v
      in
      let* seed =
        match field "seed" fields with
        | None -> Ok None
        | Some v -> decode_int "seed" v
      in
      let* policy =
        match field "policy" fields with
        | None -> Ok (Clusteer.Configuration.Vc { virtual_clusters = 2 })
        | Some (Json.Str s) -> (
            match Clusteer.Configuration.of_name s with
            | Ok p -> Ok p
            | Error (`Msg m) -> Error ("policy: " ^ m))
        | Some _ -> Error "policy: expected a string"
      in
      let* overrides = decode_overrides (field "overrides" fields) in
      if clusters <= 0 || clusters > Clusteer_topo.Topology.max_clusters then
        Error
          (Printf.sprintf "clusters: must be between 1 and %d"
             Clusteer_topo.Topology.max_clusters)
      else if uops <= 0 then Error "uops: must be positive"
      else if phase < 0 then Error "phase: must be non-negative"
      else if (match warmup with Some w -> w < 0 | None -> false) then
        Error "warmup: must be non-negative"
      else
        Ok
          (make ~workload ~phase ~clusters ~policy ~uops ?warmup ?seed
             ~overrides ())
  | _ -> Error "request: expected an object"

let equal a b = canonical_string a = canonical_string b
