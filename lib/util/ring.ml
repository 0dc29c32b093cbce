(* Values are stored unboxed; free cells hold an immediate filler, so
   [push] allocates nothing and a popped value is not kept alive. *)
type 'a t = {
  buf : 'a array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let filler () : 'a = Obj.magic 0

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity (filler ()); head = 0; len = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.buf
let free_slots t = Array.length t.buf - t.len

(* [head + i] wrapped into the buffer, for [0 <= i <= capacity]:
   compare-and-wrap instead of an integer division. *)
let index t i =
  let j = t.head + i in
  if j >= Array.length t.buf then j - Array.length t.buf else j

let push t v =
  if is_full t then false
  else begin
    let tail = index t t.len in
    t.buf.(tail) <- v;
    t.len <- t.len + 1;
    true
  end

let front t =
  if t.len = 0 then invalid_arg "Ring.front: empty ring";
  t.buf.(t.head)

let drop t =
  if t.len = 0 then invalid_arg "Ring.drop: empty ring";
  t.buf.(t.head) <- filler ();
  t.head <- index t 1;
  t.len <- t.len - 1

let peek t = if t.len = 0 then None else Some t.buf.(t.head)

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.buf.(t.head) in
    drop t;
    Some v
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  t.buf.(index t i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) (filler ());
  t.head <- 0;
  t.len <- 0
