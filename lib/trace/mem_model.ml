type t =
  | Strided of { base : int; stride : int; footprint : int }
  | Uniform of { base : int; footprint : int; granule : int }
  | Chase of { base : int; footprint : int }

type state = {
  models : t array;
  cursor : int array;  (* per-stream position / last address *)
  rng : Clusteer_util.Rng.t;
}

let validate = function
  | Strided { stride; footprint; _ } ->
      if stride = 0 then invalid_arg "Mem_model: zero stride";
      if footprint <= 0 then invalid_arg "Mem_model: footprint must be positive"
  | Uniform { footprint; granule; _ } ->
      if footprint <= 0 then invalid_arg "Mem_model: footprint must be positive";
      if granule <= 0 then invalid_arg "Mem_model: granule must be positive"
  | Chase { footprint; _ } ->
      if footprint < 8 then invalid_arg "Mem_model: chase footprint too small"

let make_state models ~seed =
  Array.iter validate models;
  {
    models;
    cursor = Array.make (Array.length models) 0;
    rng = Clusteer_util.Rng.create seed;
  }

let reset st = Array.fill st.cursor 0 (Array.length st.cursor) 0

(* Cheap invertible scramble keeping chase walks inside the footprint
   while making consecutive addresses cache-unfriendly. *)
let scramble x = (x * 2654435761) land max_int

let next_address st id =
  match st.models.(id) with
  | Strided { base; stride; footprint } ->
      let off = st.cursor.(id) in
      let addr = base + off in
      let off' = off + stride in
      st.cursor.(id) <-
        (if off' < 0 then off' + footprint else off' mod footprint);
      addr
  | Uniform { base; footprint; granule } ->
      (* 80/20 temporal locality: most accesses hit a hot subset (a
         sixteenth of the footprint, at least 4KB), the rest roam the
         whole working set — real programs reuse data heavily even in
         their "random" access phases. *)
      let hot = Int.min footprint (Int.max 4096 (footprint / 16)) in
      let window =
        if Clusteer_util.Rng.bernoulli st.rng 0.8 then hot else footprint
      in
      let slots = Int.max 1 (window / granule) in
      base + (Clusteer_util.Rng.int st.rng slots * granule)
  | Chase { base; footprint } ->
      let slots = Int.max 1 (footprint / 8) in
      let cur = st.cursor.(id) in
      let nxt = scramble (cur + 1) mod slots in
      st.cursor.(id) <- nxt;
      base + (nxt * 8)

let extent = function
  | Strided { base; footprint; _ }
  | Uniform { base; footprint; _ }
  | Chase { base; footprint } ->
      (base, footprint)

let describe = function
  | Strided { stride; footprint; _ } ->
      Printf.sprintf "strided(%d,%dB)" stride footprint
  | Uniform { footprint; _ } -> Printf.sprintf "uniform(%dB)" footprint
  | Chase { footprint; _ } -> Printf.sprintf "chase(%dB)" footprint
