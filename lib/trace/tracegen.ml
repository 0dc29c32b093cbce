open Clusteer_isa

type t = {
  prog : Program.t;
  bstate : Branch_model.state;
  mstate : Mem_model.state;
  mutable block : int;
  mutable pos : int;
  mutable seq : int;
  mutable stalled_restarts : int;
  (* address and outcome of the micro-op [step] returned last *)
  mutable addr : int;
  mutable taken : bool;
}

let create ~program ~branches ~streams ~seed =
  if Array.length branches <> program.Program.branch_model_count then
    invalid_arg "Tracegen.create: branch model arity mismatch";
  if Array.length streams <> program.Program.stream_count then
    invalid_arg "Tracegen.create: memory stream arity mismatch";
  {
    prog = program;
    bstate = Branch_model.make_state branches ~seed;
    mstate = Mem_model.make_state streams ~seed:(seed lxor 0x5DEECE66D);
    block = program.Program.entry;
    pos = 0;
    seq = 0;
    stalled_restarts = 0;
    addr = -1;
    taken = false;
  }

let program t = t.prog

(* Wrap back to the entry. Model state (loop counters, stream cursors,
   RNG) deliberately keeps rolling: the trace is one long stream, not a
   periodic repeat — a wrap-identical trace would let the branch
   predictor memorise the whole program. Determinism still holds: the
   trace is a function of (program, models, seed, length). *)
let restart t =
  t.block <- t.prog.Program.entry;
  t.pos <- 0;
  t.stalled_restarts <- t.stalled_restarts + 1;
  if t.stalled_restarts > 2 && t.seq = 0 then
    failwith "Tracegen: program produces no micro-ops"

(* Move to the next block: branch outcome selects successor 1 (taken)
   or 0 (not taken); single-successor blocks fall through; no
   successors means program exit. *)
let advance_block t ~taken =
  let blk = t.prog.Program.blocks.(t.block) in
  let succs = blk.Block.succs in
  match Array.length succs with
  | 0 -> restart t
  | 1 ->
      t.block <- succs.(0);
      t.pos <- 0
  | _ ->
      t.block <- (if taken then succs.(1) else succs.(0));
      t.pos <- 0

(* The one CFG walk behind both outputs: the next static micro-op, with
   its address and outcome left in [t.addr] and [t.taken]. Allocates
   nothing. *)
let rec step t =
  let blk = t.prog.Program.blocks.(t.block) in
  if t.pos >= Array.length blk.Block.uops then begin
    (* Empty block or exhausted without a branch terminator. *)
    advance_block t ~taken:false;
    step t
  end
  else begin
    let suop = blk.Block.uops.(t.pos) in
    t.pos <- t.pos + 1;
    t.addr <-
      (if Uop.is_mem suop then Mem_model.next_address t.mstate suop.Uop.stream
       else -1);
    let taken =
      if Uop.is_branch suop then Branch_model.outcome t.bstate suop.Uop.branch_ref
      else false
    in
    t.taken <- taken;
    t.seq <- t.seq + 1;
    t.stalled_restarts <- 0;
    if t.pos >= Array.length blk.Block.uops then advance_block t ~taken;
    suop
  end

let next t =
  let suop = step t in
  { Dynuop.seq = t.seq - 1; suop; addr = t.addr; taken = t.taken }

let fill t ~sid ~addr ~taken ~pos ~len =
  for i = pos to pos + len - 1 do
    let suop = step t in
    sid.(i) <- suop.Uop.id;
    addr.(i) <- t.addr;
    taken.(i) <- (if t.taken then 1 else 0)
  done

let take t n = Array.init n (fun _ -> next t)

let generated t = t.seq
