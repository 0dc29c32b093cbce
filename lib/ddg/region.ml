open Clusteer_isa

type t = { id : int; blocks : int array; uops : Uop.t array }

(* The micro-ops of [blocks], concatenated. *)
let flatten (all : Block.t array) blocks count =
  if count = 0 then [||]
  else begin
    let first = ref 0 in
    while Array.length all.(blocks.(!first)).Block.uops = 0 do
      incr first
    done;
    let uops = Array.make count all.(blocks.(!first)).Block.uops.(0) in
    let at = ref 0 in
    Array.iter
      (fun b ->
        let u = all.(b).Block.uops in
        Array.blit u 0 uops !at (Array.length u);
        at := !at + Array.length u)
      blocks;
    uops
  end

let build ~program ~likely ~max_uops =
  if max_uops <= 0 then invalid_arg "Region.build: max_uops must be positive";
  let all = program.Program.blocks in
  let nblocks = Array.length all in
  let placed = Array.make nblocks false in
  (* The blocks of the region being grown, in order. *)
  let path = Array.make nblocks 0 in
  let regions = ref [] in
  let grow seed =
    let len = ref 1 and count = ref (Array.length all.(seed).Block.uops) in
    path.(0) <- seed;
    placed.(seed) <- true;
    let current = ref seed and growing = ref true in
    while !growing do
      let succs = all.(!current).Block.succs in
      let choice =
        match Array.length succs with
        | 0 -> -1
        | 1 -> succs.(0)
        | _ -> (
            match likely !current with
            | Some i when i >= 0 && i < Array.length succs -> succs.(i)
            | Some _ | None -> -1)
      in
      if choice >= 0 && (not placed.(choice)) && !count < max_uops then begin
        placed.(choice) <- true;
        path.(!len) <- choice;
        incr len;
        count := !count + Array.length all.(choice).Block.uops;
        current := choice
      end
      else growing := false
    done;
    let blocks = Array.sub path 0 !len in
    let id = match !regions with [] -> 0 | r :: _ -> r.id + 1 in
    regions := { id; blocks; uops = flatten all blocks !count } :: !regions
  in
  (* Seed from the entry first so the hot path gets the longest region,
     then sweep remaining blocks in id order. *)
  grow program.Program.entry;
  for b = 0 to nblocks - 1 do
    if not placed.(b) then grow b
  done;
  List.rev !regions

let find regions ~uop_id =
  let has r = Array.exists (fun (u : Uop.t) -> u.Uop.id = uop_id) r.uops in
  match List.find_opt has regions with
  | Some r -> r
  | None -> raise Not_found

let position r ~uop_id =
  let found = ref (-1) in
  Array.iteri
    (fun i (u : Uop.t) -> if u.Uop.id = uop_id && !found < 0 then found := i)
    r.uops;
  if !found < 0 then raise Not_found else !found
