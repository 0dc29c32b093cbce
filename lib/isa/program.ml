type t = {
  name : string;
  blocks : Block.t array;
  entry : int;
  nregs_per_class : int;
  uop_count : int;
  stream_count : int;
  branch_model_count : int;
  uop_index : (int * int) array;  (* uop id -> (block id, position) *)
}

let uop t id =
  let blk, pos = t.uop_index.(id) in
  t.blocks.(blk).Block.uops.(pos)

let block_of_uop t id = fst t.uop_index.(id)
let index_in_block t id = snd t.uop_index.(id)

let iter_uops t f =
  Array.iter (fun blk -> Array.iter f blk.Block.uops) t.blocks

let pp ppf t =
  Format.fprintf ppf "@[<v2>program %s (entry %d, %d uops):@,%a@]" t.name
    t.entry t.uop_count
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Block.pp)
    (Array.to_list t.blocks)

let of_blocks_unchecked ?(name = "unchecked") ~nregs_per_class
    ?(stream_count = 0) ?(branch_model_count = 0) ~blocks ~entry () =
  let max_id = ref (-1) in
  Array.iter
    (fun blk ->
      Array.iter
        (fun (u : Uop.t) -> if u.Uop.id > !max_id then max_id := u.Uop.id)
        blk.Block.uops)
    blocks;
  let uop_count = !max_id + 1 in
  let uop_index = Array.make uop_count (-1, -1) in
  Array.iter
    (fun blk ->
      Array.iteri
        (fun pos (u : Uop.t) ->
          if u.Uop.id >= 0 then uop_index.(u.Uop.id) <- (blk.Block.id, pos))
        blk.Block.uops)
    blocks;
  {
    name;
    blocks;
    entry;
    nregs_per_class;
    uop_count;
    stream_count;
    branch_model_count;
    uop_index;
  }

module Builder = struct
  type program = t

  type b = {
    name : string;
    nregs_per_class : int;
    mutable next_uop : int;
    mutable next_stream : int;
    mutable next_branch : int;
    mutable blocks : (Uop.t list * int list) option array;
    mutable nblocks : int;
  }

  let create ?(name = "anon") ~nregs_per_class () =
    if nregs_per_class <= 0 then
      invalid_arg "Program.Builder.create: nregs_per_class must be positive";
    {
      name;
      nregs_per_class;
      next_uop = 0;
      next_stream = 0;
      next_branch = 0;
      blocks = Array.make 8 None;
      nblocks = 0;
    }

  let stream b =
    let id = b.next_stream in
    b.next_stream <- id + 1;
    id

  let branch_model b =
    let id = b.next_branch in
    b.next_branch <- id + 1;
    id

  let check_reg b (r : Reg.t) =
    if r.Reg.idx >= b.nregs_per_class then
      invalid_arg
        (Printf.sprintf "Program.Builder: register %s out of budget (%d)"
           (Reg.to_string r) b.nregs_per_class)

  let uop b opcode ?dst ?(srcs = [||]) ?stream ?branch_ref () =
    Option.iter (check_reg b) dst;
    Array.iter (check_reg b) srcs;
    (match stream with
    | Some s when s < 0 || s >= b.next_stream ->
        invalid_arg "Program.Builder.uop: unknown stream"
    | _ -> ());
    (match branch_ref with
    | Some r when r < 0 || r >= b.next_branch ->
        invalid_arg "Program.Builder.uop: unknown branch model"
    | _ -> ());
    let id = b.next_uop in
    b.next_uop <- id + 1;
    Uop.make ~id ~opcode ?dst ~srcs ?stream:(Option.map Fun.id stream)
      ?branch_ref ()

  let reserve_block b =
    if b.nblocks = Array.length b.blocks then begin
      let grown = Array.make (2 * b.nblocks) None in
      Array.blit b.blocks 0 grown 0 b.nblocks;
      b.blocks <- grown
    end;
    let id = b.nblocks in
    b.nblocks <- id + 1;
    id

  let define_block b id uops ~succs =
    if id < 0 || id >= b.nblocks then
      invalid_arg "Program.Builder.define_block: unknown block id";
    (match b.blocks.(id) with
    | Some _ -> invalid_arg "Program.Builder.define_block: already defined"
    | None -> ());
    b.blocks.(id) <- Some (uops, succs)

  let add_block b uops ~succs =
    let id = reserve_block b in
    define_block b id uops ~succs;
    id

  let finish b ~entry =
    if entry < 0 || entry >= b.nblocks then
      invalid_arg "Program.Builder.finish: entry out of range";
    let placed = Array.make b.next_uop false in
    let blocks =
      Array.init b.nblocks (fun id ->
          match b.blocks.(id) with
          | None ->
              invalid_arg
                (Printf.sprintf "Program.Builder.finish: block %d undefined" id)
          | Some (uops, succs) ->
              List.iter
                (fun (u : Uop.t) ->
                  if u.Uop.id < 0 || u.Uop.id >= b.next_uop then
                    invalid_arg "Program.Builder.finish: foreign micro-op";
                  if placed.(u.Uop.id) then
                    invalid_arg
                      (Printf.sprintf
                         "Program.Builder.finish: micro-op %d placed twice"
                         u.Uop.id);
                  placed.(u.Uop.id) <- true)
                uops;
              List.iter
                (fun s ->
                  if s < 0 || s >= b.nblocks then
                    invalid_arg
                      (Printf.sprintf
                         "Program.Builder.finish: successor %d out of range" s))
                succs;
              Block.make ~id ~uops:(Array.of_list uops)
                ~succs:(Array.of_list succs))
    in
    Array.iteri
      (fun id seen ->
        if not seen then
          invalid_arg
            (Printf.sprintf "Program.Builder.finish: micro-op %d never placed"
               id))
      placed;
    let uop_index = Array.make b.next_uop (-1, -1) in
    Array.iter
      (fun blk ->
        Array.iteri
          (fun pos (u : Uop.t) -> uop_index.(u.Uop.id) <- (blk.Block.id, pos))
          blk.Block.uops)
      blocks;
    {
      name = b.name;
      blocks;
      entry;
      nregs_per_class = b.nregs_per_class;
      uop_count = b.next_uop;
      stream_count = b.next_stream;
      branch_model_count = b.next_branch;
      uop_index;
    }
end
