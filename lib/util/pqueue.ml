type t = { mutable heap : int array; mutable size : int }

let create () = { heap = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let heap = Array.make (max 16 (2 * Array.length t.heap)) 0 in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let add t v =
  if t.size = Array.length t.heap then grow t;
  let heap = t.heap in
  (* Sift a hole up from the new leaf, then drop [v] into it. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let p = heap.(parent) in
    if v < p then begin
      heap.(!i) <- p;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- v

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let heap = t.heap in
  let top = heap.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift a hole down from the root and drop the last entry into it. *)
    let v = heap.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c = if r < n && heap.(r) < heap.(l) then r else l in
        let cv = heap.(c) in
        if cv < v then begin
          heap.(!i) <- cv;
          i := c
        end
        else moving := false
      end
    done;
    heap.(!i) <- v
  end;
  top

let clear t = t.size <- 0
