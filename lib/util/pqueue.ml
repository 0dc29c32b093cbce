(* Structure-of-arrays binary heap: entry [i] is ([prio.(i)],
   [seq.(i)], [value.(i)]). No entry record, so [add] allocates nothing
   once the arrays have grown to the queue's working size, and the
   [min_prio]/[pop_value] pair reads the minimum without building an
   option or a tuple. *)
type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for unused value cells. It is an immediate, so a value array
   is never created as a flat float array, whatever ['a] is. *)
let filler () : 'a = Obj.magic 0

let create () = { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = max 16 (2 * Array.length t.prio) in
  let prio = Array.make cap 0 and seq = Array.make cap 0 in
  let value = Array.make cap (filler ()) in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.value 0 value 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.value <- value

(* Entry (p, s) comes before entry [j] when its priority is smaller,
   or on equal priority when it was inserted earlier. *)
let before t p s j =
  let pj = t.prio.(j) in
  p < pj || (p = pj && s < t.seq.(j))

let move t ~from ~to_ =
  t.prio.(to_) <- t.prio.(from);
  t.seq.(to_) <- t.seq.(from);
  t.value.(to_) <- t.value.(from)

let add t prio v =
  if t.size = Array.length t.prio then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift a hole up from the new leaf, then drop the entry into it. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t prio seq parent then begin
      move t ~from:parent ~to_:!i;
      i := parent
    end
    else moving := false
  done;
  t.prio.(!i) <- prio;
  t.seq.(!i) <- seq;
  t.value.(!i) <- v

let min_prio t =
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty queue";
  t.prio.(0)

(* Remove the root: sift a hole down from it and drop the last entry
   into it. *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let prio = t.prio.(n) and seq = t.seq.(n) and v = t.value.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before t t.prio.(r) t.seq.(r) l then r else l
        in
        (* Sequence numbers are unique, so "not before" is "after". *)
        if not (before t prio seq c) then begin
          move t ~from:c ~to_:!i;
          i := c
        end
        else moving := false
      end
    done;
    t.prio.(!i) <- prio;
    t.seq.(!i) <- seq;
    t.value.(!i) <- v
  end;
  t.value.(n) <- filler ()

let pop_value t =
  if t.size = 0 then invalid_arg "Pqueue.pop_value: empty queue";
  let v = t.value.(0) in
  remove_min t;
  v

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.value.(0))

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) and v = t.value.(0) in
    remove_min t;
    Some (p, v)
  end

let clear t =
  Array.fill t.value 0 t.size (filler ());
  t.size <- 0;
  t.next_seq <- 0

let pop_while t keep =
  let acc = ref [] in
  while t.size > 0 && keep t.prio.(0) do
    let p = t.prio.(0) in
    acc := (p, pop_value t) :: !acc
  done;
  List.rev !acc
