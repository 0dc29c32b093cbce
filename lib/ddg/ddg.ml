open Clusteer_isa

type edge = { src : int; dst : int; latency : int }

type t = {
  uops : Uop.t array;
  succs : edge list array;
  preds : edge list array;
}

let node_count t = Array.length t.uops

(* Compiler-visible latency: assume L1 hits for loads (3-cycle data
   cache, Table 2) on top of the 1-cycle address generation. *)
let l1_hit_latency = 3

let static_latency (u : Uop.t) =
  let base = Opcode.latency u.Uop.opcode in
  match u.Uop.opcode with
  | Opcode.Load -> base + l1_hit_latency
  | _ -> base

let build uops =
  let n = Array.length uops in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let add_edge src dst =
    if src <> dst then begin
      let latency = static_latency uops.(src) in
      let e = { src; dst; latency } in
      (* Avoid duplicate edges between the same pair. *)
      if not (List.exists (fun e' -> e'.dst = dst) succs.(src)) then begin
        succs.(src) <- e :: succs.(src);
        preds.(dst) <- e :: preds.(dst)
      end
    end
  in
  (* Register true dependences: last writer of each register feeds
     subsequent readers until the next write. *)
  let last_writer : (Reg.t * int) list ref = ref [] in
  let writer_of r =
    Option.map snd (List.find_opt (fun (reg, _) -> Reg.equal reg r) !last_writer)
  in
  let set_writer r i =
    last_writer :=
      (r, i) :: List.filter (fun (reg, _) -> not (Reg.equal reg r)) !last_writer
  in
  (* Memory dependences: per stream, remember the last store and all
     loads since it. *)
  let last_store = Hashtbl.create 7 in
  for i = 0 to n - 1 do
    let u = uops.(i) in
    Array.iter
      (fun src -> match writer_of src with Some w -> add_edge w i | None -> ())
      u.Uop.srcs;
    if Uop.is_mem u then begin
      let stream = u.Uop.stream in
      (match u.Uop.opcode with
      | Opcode.Load -> (
          match Hashtbl.find_opt last_store stream with
          | Some s -> add_edge s i
          | None -> ())
      | Opcode.Store ->
          (match Hashtbl.find_opt last_store stream with
          | Some s -> add_edge s i
          | None -> ());
          Hashtbl.replace last_store stream i
      | _ -> ())
    end;
    Option.iter (fun d -> set_writer d i) u.Uop.dst
  done;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  { uops; succs; preds }

let of_region (r : Region.t) = build r.Region.uops

let iter_edges t f =
  Array.iter (fun es -> List.iter f es) t.succs

let roots t =
  let acc = ref [] in
  for i = node_count t - 1 downto 0 do
    if t.preds.(i) = [] then acc := i :: !acc
  done;
  !acc

let leaves t =
  let acc = ref [] in
  for i = node_count t - 1 downto 0 do
    if t.succs.(i) = [] then acc := i :: !acc
  done;
  !acc

let is_acyclic t =
  (* Edges produced by [build] always satisfy src < dst. *)
  Array.for_all (List.for_all (fun e -> e.src < e.dst)) t.succs

let topological_order t = Array.init (node_count t) Fun.id
