(* Buckets are circular singly-linked lists of pool nodes: [last.(b)]
   is the newest node of bucket [b] (-1 when empty) and its [next] is
   the oldest, so appending and removing the oldest are O(1) with one
   array per bucket. Free nodes are chained through [next] from
   [free]. *)
type t = {
  mutable mask : int;
  mutable last : int array;
  mutable value : int array;
  mutable next : int array;
  mutable free : int;
  mutable size : int;
  mutable base : int;
}

let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

(* Link nodes [lo, hi) into the free list, lowest first. *)
let free_nodes t lo hi =
  for i = hi - 1 downto lo do
    t.next.(i) <- t.free;
    t.free <- i
  done

let create () =
  let t =
    {
      mask = 63;
      last = Array.make 64 (-1);
      value = Array.make 64 0;
      next = Array.make 64 (-1);
      free = -1;
      size = 0;
      base = 0;
    }
  in
  free_nodes t 0 64;
  t

let length t = t.size
let is_empty t = t.size = 0

let grow_pool t =
  let n = Array.length t.value in
  let value = Array.make (2 * n) 0 and next = Array.make (2 * n) (-1) in
  Array.blit t.value 0 value 0 n;
  Array.blit t.next 0 next 0 n;
  t.value <- value;
  t.next <- next;
  free_nodes t n (2 * n)

(* Double the buckets until [due] is inside the horizon. Every pending
   entry is due in [base, base + old buckets), one due cycle per old
   bucket, and those cycles land in distinct new buckets: each list
   moves whole, keeping its FIFO order. *)
let grow_buckets t due =
  let old = t.mask + 1 in
  let buckets = pow2_above (due - t.base) old in
  let last = Array.make buckets (-1) in
  for d = t.base to t.base + old - 1 do
    last.(d land (buckets - 1)) <- t.last.(d land t.mask)
  done;
  t.last <- last;
  t.mask <- buckets - 1

let add t ~due v =
  if due < t.base then
    invalid_arg
      (Printf.sprintf "Wheel.add: due cycle %d is before the wheel's base %d"
         due t.base);
  if v < 0 then invalid_arg "Wheel.add: negative payload";
  if due - t.base > t.mask then grow_buckets t due;
  if t.free < 0 then grow_pool t;
  let n = t.free in
  t.free <- t.next.(n);
  t.value.(n) <- v;
  let b = due land t.mask in
  let l = t.last.(b) in
  if l < 0 then t.next.(n) <- n
  else begin
    t.next.(n) <- t.next.(l);
    t.next.(l) <- n
  end;
  t.last.(b) <- n;
  t.size <- t.size + 1

let rec pop_due t now =
  let b = t.base land t.mask in
  let l = t.last.(b) in
  if l >= 0 then
    if t.base > now then -1
    else begin
      let n = t.next.(l) in
      if n = l then t.last.(b) <- -1 else t.next.(l) <- t.next.(n);
      t.next.(n) <- t.free;
      t.free <- n;
      t.size <- t.size - 1;
      t.value.(n)
    end
  else if t.base < now then begin
    (* Bucket [base] is empty: step to the next cycle, or straight to
       [now] when nothing at all is pending. *)
    t.base <- (if t.size = 0 then now else t.base + 1);
    pop_due t now
  end
  else -1

let next_due t =
  if t.size = 0 then max_int
  else begin
    let d = ref t.base in
    while t.last.(!d land t.mask) < 0 do
      incr d
    done;
    !d
  end

let clear t =
  Array.fill t.last 0 (Array.length t.last) (-1);
  t.free <- -1;
  free_nodes t 0 (Array.length t.value);
  t.size <- 0;
  t.base <- 0
