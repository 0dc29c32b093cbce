open Clusteer_isa
module Scratch = Clusteer_util.Scratch

type t = {
  uops : Uop.t array;
  latency : int array;
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
}

let node_count t = Array.length t.uops
let edge_count t = Array.length t.pred

(* Compiler-visible latency: assume L1 hits for loads (3-cycle data
   cache, Table 2) on top of the 1-cycle address generation. *)
let l1_hit_latency = 3

let static_latency (u : Uop.t) =
  let base = Opcode.latency u.Uop.opcode in
  match u.Uop.opcode with
  | Opcode.Load -> base + l1_hit_latency
  | _ -> base

type scratch = {
  mutable writer : int array;
  mutable last_store : int array;
  mutable linked : int array;
  mutable buf : int array;
}

let scratch () = { writer = [||]; last_store = [||]; linked = [||]; buf = [||] }

(* Record the edge [src -> i] (none when [src < 0]) as the [m]-th
   predecessor entry unless it is already there; the new entry count. *)
let link (linked : int array) (buf : int array) m src (i : int) =
  if src >= 0 && linked.(src) <> i then begin
    linked.(src) <- i;
    buf.(m) <- src;
    m + 1
  end
  else m

let build ?scratch:s uops =
  let s = match s with Some s -> s | None -> scratch () in
  let n = Array.length uops in
  (* Size the dense tables from the region itself: registers by
     [Reg.encode] over the largest index used, streams over the range
     of stream ids used. [bound] caps the edge count: one per source
     operand plus one memory edge per micro-op. *)
  let max_idx = ref 0 and lo_stream = ref max_int and hi_stream = ref min_int in
  let bound = ref 0 in
  for i = 0 to n - 1 do
    let u = uops.(i) in
    let srcs = u.Uop.srcs in
    for j = 0 to Array.length srcs - 1 do
      max_idx := Int.max !max_idx srcs.(j).Reg.idx
    done;
    (match u.Uop.dst with
    | Some d -> max_idx := Int.max !max_idx d.Reg.idx
    | None -> ());
    if Uop.is_mem u then begin
      lo_stream := Int.min !lo_stream u.Uop.stream;
      hi_stream := Int.max !hi_stream u.Uop.stream
    end;
    bound := !bound + Array.length srcs + 1
  done;
  let nregs_per_class = !max_idx + 1 in
  let lo = !lo_stream in
  (* Register true dependences: the last writer of each register feeds
     subsequent readers until the next write. Memory dependences: per
     stream, the last store feeds later loads and the next store. *)
  s.writer <- Scratch.reset s.writer (2 * nregs_per_class) (-1);
  s.last_store <-
    Scratch.reset s.last_store
      (if !hi_stream < lo then 0 else !hi_stream - lo + 1)
      (-1);
  (* [linked.(src) = i] once the edge src -> i is recorded; edges into
     [i] are only added while node [i] is visited, so this dedupes
     (see [link]). *)
  s.linked <- Scratch.reset s.linked n (-1);
  s.buf <- Scratch.reset s.buf !bound 0;
  let writer = s.writer and last_store = s.last_store in
  let linked = s.linked and buf = s.buf in
  let pred_off = Array.make (n + 1) 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let u = uops.(i) in
    pred_off.(i) <- !m;
    let srcs = u.Uop.srcs in
    for j = 0 to Array.length srcs - 1 do
      m := link linked buf !m writer.(Reg.encode ~nregs_per_class srcs.(j)) i
    done;
    (match u.Uop.opcode with
    | Opcode.Load -> m := link linked buf !m last_store.(u.Uop.stream - lo) i
    | Opcode.Store ->
        m := link linked buf !m last_store.(u.Uop.stream - lo) i;
        last_store.(u.Uop.stream - lo) <- i
    | _ -> ());
    match u.Uop.dst with
    | Some d -> writer.(Reg.encode ~nregs_per_class d) <- i
    | None -> ()
  done;
  pred_off.(n) <- !m;
  let pred = Array.sub buf 0 !m in
  (* Successor rows by counting sort over the predecessor rows: visiting
     destinations in ascending order appends each source's successors
     in insertion order. [linked] becomes the per-row fill cursor. *)
  let succ_off = Array.make (n + 1) 0 in
  Array.iter (fun src -> succ_off.(src + 1) <- succ_off.(src + 1) + 1) pred;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i);
    linked.(i) <- succ_off.(i)
  done;
  let succ = Array.make !m 0 in
  for dst = 0 to n - 1 do
    for k = pred_off.(dst) to pred_off.(dst + 1) - 1 do
      let src = pred.(k) in
      succ.(linked.(src)) <- dst;
      linked.(src) <- linked.(src) + 1
    done
  done;
  let latency = Array.map static_latency uops in
  { uops; latency; succ_off; succ; pred_off; pred }

let of_region ?scratch (r : Region.t) = build ?scratch r.Region.uops

let iter_succs t i f =
  for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
    f t.succ.(k)
  done

let iter_preds t i f =
  for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    f t.pred.(k)
  done

let succ_count t i = t.succ_off.(i + 1) - t.succ_off.(i)
let pred_count t i = t.pred_off.(i + 1) - t.pred_off.(i)

let iter_edges t f =
  for src = 0 to node_count t - 1 do
    iter_succs t src (fun dst -> f src dst)
  done

let nodes_where t p =
  let acc = ref [] in
  for i = node_count t - 1 downto 0 do
    if p i then acc := i :: !acc
  done;
  !acc

let roots t = nodes_where t (fun i -> pred_count t i = 0)
let leaves t = nodes_where t (fun i -> succ_count t i = 0)

let is_acyclic t =
  let ok = ref true in
  iter_edges t (fun src dst -> if src >= dst then ok := false);
  !ok
