module Json = Clusteer_obs.Json

type kind =
  | P2p
  | Bus
  | Ring
  | Mesh of { cols : int; rows : int }
  | Hier of { groups : int; group_size : int }

type t = {
  kind : kind;
  clusters : int;
  link_latency : int;
  uplink_latency : int;
  uplink_bandwidth : int;
}

let max_clusters = 16

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.clusters <= 0 then err "topology: clusters must be positive"
  else if t.link_latency <= 0 then err "topology: link_latency must be positive"
  else if t.uplink_latency <= 0 then
    err "topology: uplink_latency must be positive"
  else if t.uplink_bandwidth <= 0 then
    err "topology: uplink_bandwidth must be positive"
  else
    match t.kind with
    | P2p | Bus | Ring -> Ok ()
    | Mesh { cols; rows } ->
        if cols <= 0 || rows <= 0 then err "topology: mesh sides must be positive"
        else if cols * rows <> t.clusters then
          err "topology: mesh %dx%d has %d cells, clusters says %d" cols rows
            (cols * rows) t.clusters
        else Ok ()
    | Hier { groups; group_size } ->
        if groups <= 0 || group_size <= 0 then
          err "topology: hier sides must be positive"
        else if groups * group_size <> t.clusters then
          err "topology: hier %dx%d has %d clusters, clusters says %d" groups
            group_size (groups * group_size) t.clusters
        else Ok ()

let checked t =
  match validate t with Ok () -> t | Error m -> invalid_arg m

let make ?(link_latency = 1) ?(uplink_latency = 4) ?(uplink_bandwidth = 1) kind
    ~clusters =
  checked { kind; clusters; link_latency; uplink_latency; uplink_bandwidth }

let p2p ?link_latency ~clusters () = make ?link_latency P2p ~clusters
let bus ?link_latency ~clusters () = make ?link_latency Bus ~clusters
let ring ?link_latency ~clusters () = make ?link_latency Ring ~clusters

let mesh ?link_latency ~cols ~rows () =
  make ?link_latency (Mesh { cols; rows }) ~clusters:(cols * rows)

let hier ?link_latency ?uplink_latency ?uplink_bandwidth ~groups ~group_size ()
    =
  make ?link_latency ?uplink_latency ?uplink_bandwidth
    (Hier { groups; group_size })
    ~clusters:(groups * group_size)

let name t =
  match t.kind with
  | P2p -> "p2p"
  | Bus -> "bus"
  | Ring -> "ring"
  | Mesh { cols; rows } -> Printf.sprintf "mesh%dx%d" cols rows
  | Hier { groups; group_size } -> Printf.sprintf "hier%dx%d" groups group_size

let builtin_names = [ "p2p"; "bus"; "ring"; "mesh4x2"; "hier2x4" ]

let of_name ?(clusters = 4) s =
  let dims prefix =
    (* "mesh4x2" -> Some (4, 2); anything malformed -> None *)
    let plen = String.length prefix in
    if String.length s <= plen then None
    else
      match
        String.index_opt (String.sub s plen (String.length s - plen)) 'x'
      with
      | None -> None
      | Some i -> (
          let a = String.sub s plen i in
          let b = String.sub s (plen + i + 1) (String.length s - plen - i - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
  in
  let guard t = match validate t with Ok () -> Ok t | Error m -> Error m in
  (* Sizes are checked before anything is built: machine state is
     allocated per cluster and per pair of clusters. *)
  let sized a b k =
    if a > max_clusters || b > max_clusters || a * b > max_clusters then
      Error
        (Printf.sprintf "topology %s: %dx%d clusters (at most %d)" s a b
           max_clusters)
    else k ()
  in
  let parametric kind =
    if clusters < 1 || clusters > max_clusters then
      Error
        (Printf.sprintf "topology %s: clusters must be between 1 and %d (got %d)"
           s max_clusters clusters)
    else guard (make kind ~clusters)
  in
  match s with
  | "p2p" -> parametric P2p
  | "bus" -> parametric Bus
  | "ring" -> parametric Ring
  | _ when String.length s > 4 && String.sub s 0 4 = "mesh" -> (
      match dims "mesh" with
      | Some (cols, rows) when cols > 0 && rows > 0 ->
          sized cols rows (fun () -> guard (mesh ~cols ~rows ()))
      | _ -> Error (Printf.sprintf "bad mesh spec %S (want e.g. mesh4x2)" s)
  )
  | _ when String.length s > 4 && String.sub s 0 4 = "hier" -> (
      match dims "hier" with
      | Some (groups, group_size) when groups > 0 && group_size > 0 ->
          sized groups group_size (fun () -> guard (hier ~groups ~group_size ()))
      | _ -> Error (Printf.sprintf "bad hier spec %S (want e.g. hier2x4)" s)
  )
  | _ ->
      Error
        (Printf.sprintf "unknown topology %S (expected %s, meshCxR or hierGxS)"
           s
           (String.concat ", " [ "p2p"; "bus"; "ring" ]))

let is_uniform t = match t.kind with P2p | Bus -> true | Ring | Mesh _ | Hier _ -> false

let distance t a b =
  if a = b then 0
  else
    match t.kind with
    | P2p | Bus -> 1
    | Ring ->
        let n = t.clusters in
        let fwd = (b - a + n) mod n in
        min fwd (n - fwd)
    | Mesh { cols; _ } ->
        let ax = a mod cols and ay = a / cols in
        let bx = b mod cols and by = b / cols in
        abs (ax - bx) + abs (ay - by)
    | Hier { group_size; _ } ->
        if a / group_size = b / group_size then 1
        else (* egress hop, uplink crossing, ingress hop *) 3

let latency t a b =
  if a = b then 0
  else
    match t.kind with
    | P2p | Bus -> t.link_latency
    | Ring | Mesh _ -> distance t a b * t.link_latency
    | Hier { group_size; _ } ->
        if a / group_size = b / group_size then t.link_latency
        else (2 * t.link_latency) + t.uplink_latency

let distance_matrix t =
  Array.init t.clusters (fun a ->
      Array.init t.clusters (fun b -> distance t a b))

let latency_matrix t =
  Array.init t.clusters (fun a ->
      Array.init t.clusters (fun b -> latency t a b))

let diameter t =
  let d = ref 0 in
  for a = 0 to t.clusters - 1 do
    for b = 0 to t.clusters - 1 do
      if distance t a b > !d then d := distance t a b
    done
  done;
  !d

let mean_distance t =
  let n = t.clusters in
  if n <= 1 then 0.
  else begin
    let sum = ref 0 in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then sum := !sum + distance t a b
      done
    done;
    float_of_int !sum /. float_of_int (n * (n - 1))
  end

let equal a b =
  a.kind = b.kind && a.clusters = b.clusters
  && a.link_latency = b.link_latency
  && a.uplink_latency = b.uplink_latency
  && a.uplink_bandwidth = b.uplink_bandwidth

let describe t =
  match t.kind with
  | P2p ->
      Printf.sprintf
        "bi-directional point-to-point link, %d cycle latency, 1 copy/cycle"
        t.link_latency
  | Bus ->
      Printf.sprintf "shared bus, %d cycle latency, 1 copy/cycle total"
        t.link_latency
  | Ring ->
      Printf.sprintf "%d-cluster ring, %d cycle(s) per hop, 1 copy/cycle per hop"
        t.clusters t.link_latency
  | Mesh { cols; rows } ->
      Printf.sprintf
        "%dx%d mesh, XY routing, %d cycle(s) per hop, 1 copy/cycle per link"
        cols rows t.link_latency
  | Hier { groups; group_size } ->
      Printf.sprintf
        "%d groups of %d clusters; in-group p2p %d cycle(s), cross-group \
         uplink +%d cycle(s), %d channel(s)"
        groups group_size t.link_latency t.uplink_latency t.uplink_bandwidth

let to_json t =
  let dims =
    match t.kind with
    | P2p | Bus | Ring -> []
    | Mesh { cols; rows } ->
        [ ("cols", Json.Int cols); ("rows", Json.Int rows) ]
    | Hier { groups; group_size } ->
        [ ("groups", Json.Int groups); ("group_size", Json.Int group_size) ]
  in
  Json.Obj
    ([
       ( "kind",
         Json.Str
           (match t.kind with
           | P2p -> "p2p"
           | Bus -> "bus"
           | Ring -> "ring"
           | Mesh _ -> "mesh"
           | Hier _ -> "hier") );
       ("clusters", Json.Int t.clusters);
     ]
    @ dims
    @ [
        ("link_latency", Json.Int t.link_latency);
        ("uplink_latency", Json.Int t.uplink_latency);
        ("uplink_bandwidth", Json.Int t.uplink_bandwidth);
      ])

let of_json j =
  let int_field ?default k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> Ok v
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "topology json: missing int %S" k))
  in
  let ( let* ) = Result.bind in
  let* kind_s =
    match Option.bind (Json.member "kind" j) Json.to_str with
    | Some s -> Ok s
    | None -> Error "topology json: missing \"kind\""
  in
  let* clusters = int_field "clusters" in
  let* link_latency = int_field ~default:1 "link_latency" in
  let* uplink_latency = int_field ~default:4 "uplink_latency" in
  let* uplink_bandwidth = int_field ~default:1 "uplink_bandwidth" in
  let* kind =
    match kind_s with
    | "p2p" -> Ok P2p
    | "bus" -> Ok Bus
    | "ring" -> Ok Ring
    | "mesh" ->
        let* cols = int_field "cols" in
        let* rows = int_field "rows" in
        Ok (Mesh { cols; rows })
    | "hier" ->
        let* groups = int_field "groups" in
        let* group_size = int_field "group_size" in
        Ok (Hier { groups; group_size })
    | s -> Error (Printf.sprintf "topology json: unknown kind %S" s)
  in
  let t = { kind; clusters; link_latency; uplink_latency; uplink_bandwidth } in
  let* () = validate t in
  Ok t
