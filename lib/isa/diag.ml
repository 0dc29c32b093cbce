module Json = Clusteer_obs.Json

type severity = Error | Warning | Info

type location = { uop : int; block : int; region : int }

type t = {
  code : string;
  severity : severity;
  message : string;
  loc : location;
}

let make ?(uop = -1) ?(block = -1) ?(region = -1) severity ~code message =
  { code; severity; message; loc = { uop; block; region } }

let errorf ?uop ?block ?region ~code fmt =
  Printf.ksprintf (make ?uop ?block ?region Error ~code) fmt

let warnf ?uop ?block ?region ~code fmt =
  Printf.ksprintf (make ?uop ?block ?region Warning ~code) fmt

let infof ?uop ?block ?region ~code fmt =
  Printf.ksprintf (make ?uop ?block ?region Info ~code) fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let is_error d = d.severity = Error

let count severity diags =
  List.fold_left
    (fun acc d -> if d.severity = severity then acc + 1 else acc)
    0 diags

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = Int.compare a.loc.region b.loc.region in
      if c <> 0 then c
      else
        let c = Int.compare a.loc.block b.loc.block in
        if c <> 0 then c else Int.compare a.loc.uop b.loc.uop

let pp ppf d =
  let pp_loc ppf loc =
    if loc.uop >= 0 then Format.fprintf ppf " uop %d" loc.uop;
    if loc.block >= 0 then Format.fprintf ppf " (block %d)" loc.block
    else if loc.region >= 0 then Format.fprintf ppf " (region %d)" loc.region
  in
  Format.fprintf ppf "%s[%s]%a: %s" (severity_name d.severity) d.code pp_loc
    d.loc d.message

let to_json d =
  let base =
    [
      ("severity", Json.Str (severity_name d.severity));
      ("code", Json.Str d.code);
      ("message", Json.Str d.message);
    ]
  in
  let loc_field name v = if v >= 0 then [ (name, Json.Int v) ] else [] in
  Json.Obj
    (base
    @ loc_field "uop" d.loc.uop
    @ loc_field "block" d.loc.block
    @ loc_field "region" d.loc.region)

let of_json doc =
  let str name =
    match Option.bind (Json.member name doc) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "diagnostic: missing field %S" name)
  in
  let int_default name =
    match Json.member name doc with
    | Some j -> (
        match Json.to_int j with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "diagnostic: %s must be an integer" name))
    | None -> Ok (-1)
  in
  let ( let* ) = Result.bind in
  let* sev = str "severity" in
  let* severity =
    match severity_of_name sev with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "diagnostic: unknown severity %S" sev)
  in
  let* code = str "code" in
  let* message = str "message" in
  let* uop = int_default "uop" in
  let* block = int_default "block" in
  let* region = int_default "region" in
  Ok { code; severity; message; loc = { uop; block; region } }
