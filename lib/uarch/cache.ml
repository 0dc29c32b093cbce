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

(* A saved set of resident lines, 5 bytes per line: the tag as an
   int32, then the line's rank in its set's LRU order (0 = invalid,
   1 = least recent). Replacement only ever compares the recency of
   ways within one set, so the rank is all of the recency that needs
   keeping, and the image is under a third of the cache's own arrays.
   The size matters: a process that runs one configuration per point
   saves an image on every run and never restores one, and a raw copy
   of [tags] and [recency] (0.5 MB for the default L2) left such a
   process with a peak heap 1.3 MB above this format's. *)
type image = {
  img_sets : int;
  img_ways : int;
  img_line_shift : int;
  lines : Bytes.t;
}

let line_bytes = 5

let imageable t =
  t.ways <= 255
  && Array.for_all (fun tag -> tag >= -1 && tag <= 0x7fff_ffff) t.tags

let write_lines t b =
  for set = 0 to t.sets - 1 do
    let base = set * t.ways in
    for w = 0 to t.ways - 1 do
      let i = base + w in
      let tag = t.tags.(i) in
      let rank = ref 0 in
      if tag >= 0 then begin
        incr rank;
        for v = 0 to t.ways - 1 do
          if t.tags.(base + v) >= 0 && t.recency.(base + v) < t.recency.(i)
          then incr rank
        done
      end;
      Bytes.set_int32_le b (line_bytes * i) (Int32.of_int tag);
      Bytes.set_uint8 b ((line_bytes * i) + 4) !rank
    done
  done

let save t =
  if not (imageable t) then None
  else begin
    let lines = Bytes.create (line_bytes * Array.length t.tags) in
    write_lines t lines;
    Some
      {
        img_sets = t.sets;
        img_ways = t.ways;
        img_line_shift = t.line_shift;
        lines;
      }
  end

let fits im t =
  im.img_sets = t.sets && im.img_ways = t.ways && im.img_line_shift = t.line_shift

let save_into im t =
  if not (fits im t) then invalid_arg "Cache.save_into: geometries differ";
  if imageable t then begin
    write_lines t im.lines;
    true
  end
  else false

let restore im t =
  if not (fits im t) then invalid_arg "Cache.restore: geometries differ";
  for i = 0 to Array.length t.tags - 1 do
    t.tags.(i) <- Int32.to_int (Bytes.get_int32_le im.lines (line_bytes * i));
    t.recency.(i) <- Bytes.get_uint8 im.lines ((line_bytes * i) + 4)
  done;
  (* Later accesses must rank above every restored line. *)
  t.clock <- t.ways

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
