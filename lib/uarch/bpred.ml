type t = {
  bits : int;
  counters : int array;  (* 2-bit saturating, 0..3; >=2 predicts taken *)
  mutable history : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ~bits =
  if bits < 1 || bits > 24 then invalid_arg "Bpred.create: bits out of range";
  {
    bits;
    counters = Array.make (1 lsl bits) 2;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

let index t ~pc = (pc lxor t.history) land ((1 lsl t.bits) - 1)

let predict t ~pc = t.counters.(index t ~pc) >= 2

let update t ~pc ~taken =
  let i = index t ~pc in
  t.lookups <- t.lookups + 1;
  let predicted = t.counters.(i) >= 2 in
  if predicted <> taken then t.mispredicts <- t.mispredicts + 1;
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land ((1 lsl t.bits) - 1)

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let accuracy t =
  if t.lookups = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.lookups)

let reset_stats t =
  t.lookups <- 0;
  t.mispredicts <- 0

let reset t =
  Array.fill t.counters 0 (Array.length t.counters) 2;
  t.history <- 0;
  reset_stats t
