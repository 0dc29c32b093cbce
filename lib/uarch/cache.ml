type t = {
  sets : int;
  ways : int;
  line_shift : int;
  set_shift : int;  (* log2 sets: the tag is the line number above it *)
  tags : int array;  (* sets * ways; -1 = invalid *)
  recency : int array;  (* higher = more recently used *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome = Hit | Miss

let log2 n =
  let rec loop acc v = if v <= 1 then acc else loop (acc + 1) (v lsr 1) in
  loop 0 n

let create (c : Config.cache) =
  let sets = c.Config.size_bytes / (c.Config.ways * c.Config.line_bytes) in
  if sets <= 0 then invalid_arg "Cache.create: zero sets";
  if sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    sets;
    ways = c.Config.ways;
    line_shift = log2 c.Config.line_bytes;
    set_shift = log2 sets;
    tags = Array.make (sets * c.Config.ways) (-1);
    recency = Array.make (sets * c.Config.ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let sets t = t.sets
let ways t = t.ways

(* First way of the set holding [addr]'s line. *)
let set_base t addr = ((addr lsr t.line_shift) land (t.sets - 1)) * t.ways
let tag_of t addr = (addr lsr t.line_shift) lsr t.set_shift

(* Way index of [tag] in the set starting at [base], or -1. A plain
   loop: a local recursive function capturing [t] and [tag] would be a
   closure allocated on every lookup. *)
let find_way t base tag =
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> tag do
    incr w
  done;
  if !w = t.ways then -1 else !w

let access t ~addr ~write:_ =
  let base = set_base t addr and tag = tag_of t addr in
  t.clock <- t.clock + 1;
  let w = find_way t base tag in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    t.recency.(base + w) <- t.clock;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill into the LRU (or an invalid) way. *)
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.recency.(base + w) < t.recency.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.recency.(base + !victim) <- t.clock;
    Miss
  end

let touch t ~addr =
  let hits = t.hits and misses = t.misses in
  (match access t ~addr ~write:false with Hit | Miss -> ());
  t.hits <- hits;
  t.misses <- misses

let probe t ~addr = find_way t (set_base t addr) (tag_of t addr) >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.recency 0 (Array.length t.recency) 0

(* Lines go into a set's ways in the order the newest-first scan finds
   them, so a set's filled ways are always a prefix. While the scan
   runs, [clock] counts the lines placed and each line's recency is
   minus its place (-1 for the newest); a final pass lifts them to
   1..clock, which ranks them by last touch as touching would. *)
let rec scan_newest_first t ~stride ranges full =
  match ranges with
  | [] -> full
  | (base, bytes) :: newer ->
      let full = ref (scan_newest_first t ~stride newer full) in
      let i = ref (max 1 ((bytes + stride - 1) / stride) - 1) in
      while !i >= 0 && !full < t.sets do
        let addr = base + (!i * stride) in
        let b = set_base t addr and tag = tag_of t addr in
        let w = ref 0 in
        while !w < t.ways && t.tags.(b + !w) >= 0 && t.tags.(b + !w) <> tag do
          incr w
        done;
        if !w < t.ways && t.tags.(b + !w) < 0 then begin
          t.clock <- t.clock + 1;
          t.tags.(b + !w) <- tag;
          t.recency.(b + !w) <- - t.clock;
          if !w = t.ways - 1 then incr full
        end;
        decr i
      done;
      !full

let prewarm t ~stride ranges =
  invalidate_all t;
  t.clock <- 0;
  ignore (scan_newest_first t ~stride ranges 0 : int);
  for i = 0 to Array.length t.recency - 1 do
    if t.recency.(i) < 0 then t.recency.(i) <- t.recency.(i) + t.clock + 1
  done

let copy_lines ~src t =
  if src.sets <> t.sets || src.ways <> t.ways || src.line_shift <> t.line_shift
  then invalid_arg "Cache.copy_lines: caches of different shapes";
  (* Loops, not [Array.blit]: on int arrays in the major heap, blit
     goes through the write barrier element by element. *)
  for i = 0 to Array.length t.tags - 1 do
    t.tags.(i) <- src.tags.(i);
    t.recency.(i) <- src.recency.(i)
  done;
  t.clock <- src.clock

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
