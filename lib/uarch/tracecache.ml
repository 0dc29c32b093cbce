type t = {
  line_uops : int;
  sets : int;
  ways : int;
  tags : int array;  (* sets * ways, -1 invalid *)
  recency : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~size_uops ~line_uops ~ways =
  if size_uops <= 0 || line_uops <= 0 || ways <= 0 then
    invalid_arg "Tracecache.create: sizes must be positive";
  let lines = size_uops / line_uops in
  if lines < ways then invalid_arg "Tracecache.create: fewer lines than ways";
  let sets = lines / ways in
  if sets land (sets - 1) <> 0 then
    invalid_arg "Tracecache.create: set count must be a power of two";
  {
    line_uops;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    recency = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let lookup t ~static_id =
  if static_id < 0 then invalid_arg "Tracecache.lookup: negative id";
  let line = static_id / t.line_uops in
  let set = line land (t.sets - 1) in
  let tag = line in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  (* Plain loop, not a local recursive function: that would be a
     closure allocated on every fetch. *)
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> tag do
    incr w
  done;
  if !w < t.ways then begin
    t.hits <- t.hits + 1;
    t.recency.(base + !w) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.recency.(base + w) < t.recency.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.recency.(base + !victim) <- t.clock;
    false
  end

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.recency 0 (Array.length t.recency) 0;
  t.clock <- 0;
  reset_stats t
