open Clusteer_isa

type t = {
  mutable sid : int array;
  mutable addr : int array;
  mutable taken : int array;
  mutable base : int;
  mutable len : int;
  mutable uops : Uop.t array;
  mutable refill : t -> int -> unit;
}

let no_uop =
  {
    Uop.id = -1;
    opcode = Opcode.Int_alu;
    dst = None;
    srcs = [||];
    stream = -1;
    branch_ref = -1;
  }

let no_stream _ _ = invalid_arg "Columns: no stream; rewind the buffer first"

let create () =
  {
    sid = [||];
    addr = [||];
    taken = [||];
    base = 0;
    len = 0;
    uops = [||];
    refill = no_stream;
  }

(* Copied with a loop, not [Array.blit]: on int arrays in the major
   heap, blit goes through the write barrier element by element. *)
let grown a n len =
  let b = Array.make n 0 in
  for i = 0 to len - 1 do
    b.(i) <- a.(i)
  done;
  b

let reserve t n =
  let cap = Array.length t.sid in
  if n > cap then begin
    let n = max n (max 4096 (2 * cap)) in
    t.sid <- grown t.sid n t.len;
    t.addr <- grown t.addr n t.len;
    t.taken <- grown t.taken n t.len
  end

(* Generated ahead in chunks, so the readers' per-micro-op check
   rarely calls out. *)
let chunk = 512

let generate gen t p =
  let upto = p + chunk in
  reserve t upto;
  Tracegen.fill gen ~sid:t.sid ~addr:t.addr ~taken:t.taken ~pos:t.len
    ~len:(upto - t.len);
  t.len <- upto

let uop_table program =
  let table = Array.make program.Program.uop_count no_uop in
  Program.iter_uops program (fun u ->
      let id = u.Uop.id in
      if id < 0 then
        invalid_arg (Printf.sprintf "Columns: negative static id %d" id);
      if table.(id) != no_uop && table.(id) <> u then
        invalid_arg
          (Printf.sprintf "Columns: static id %d names two different micro-ops"
             id);
      table.(id) <- u);
  table

let rewind t gen =
  t.uops <- uop_table (Tracegen.program gen);
  t.base <- 0;
  t.len <- 0;
  t.refill <- generate gen

let of_generator gen =
  let t = create () in
  rewind t gen;
  t

let[@inline] ensure t p = if p - t.base >= t.len then t.refill t p
