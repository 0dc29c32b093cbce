type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l1_hit : int;
  l2_hit : int;
  mem : int;
  prefetch : bool;
  line : int;
}

let make (cfg : Config.t) =
  {
    l1 = Cache.create cfg.Config.l1d;
    l2 = Cache.create cfg.Config.l2;
    l1_hit = cfg.Config.l1d.Config.hit_latency;
    l2_hit = cfg.Config.l2.Config.hit_latency;
    mem = cfg.Config.memory_latency;
    prefetch = cfg.Config.prefetch_next_line;
    line = cfg.Config.l1d.Config.line_bytes;
  }

let load_latency t ~addr =
  match Cache.access t.l1 ~addr ~write:false with
  | Cache.Hit -> t.l1_hit
  | Cache.Miss ->
      let lat =
        match Cache.access t.l2 ~addr ~write:false with
        | Cache.Hit -> t.l1_hit + t.l2_hit
        | Cache.Miss -> t.l1_hit + t.l2_hit + t.mem
      in
      (* Idealised next-line prefetch: fill quietly on a demand miss
         (always timely, no bandwidth cost, not a demand access). *)
      if t.prefetch then begin
        let next = addr + t.line in
        Cache.touch t.l2 ~addr:next;
        Cache.touch t.l1 ~addr:next
      end;
      lat

let store t ~addr =
  ignore (Cache.access t.l1 ~addr ~write:true);
  ignore (Cache.access t.l2 ~addr ~write:true)

let l1_resident t ~addr = Cache.probe t.l1 ~addr

(* Prewarm ranges are touched in 64-byte steps whatever the line size. *)
let stride = 64

let prewarm t ~base ~bytes =
  let n = max 1 ((bytes + stride - 1) / stride) in
  for i = 0 to n - 1 do
    let addr = base + (i * stride) in
    Cache.touch t.l2 ~addr;
    Cache.touch t.l1 ~addr
  done

(* The two levels never touch each other during a prewarm, so each can
   be computed on its own. *)
let prewarm_ranges t ranges =
  Cache.prewarm t.l1 ~stride ranges;
  Cache.prewarm t.l2 ~stride ranges

let create ?(prewarm = []) cfg =
  let t = make cfg in
  prewarm_ranges t prewarm;
  t

let l1_hits t = Cache.hits t.l1
let l1_misses t = Cache.misses t.l1
let l2_hits t = Cache.hits t.l2
let l2_misses t = Cache.misses t.l2

let reset_stats t =
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2

let reset ?(prewarm = []) t =
  reset_stats t;
  prewarm_ranges t prewarm

let reset_from ~src t =
  reset_stats t;
  Cache.copy_lines ~src:src.l1 t.l1;
  Cache.copy_lines ~src:src.l2 t.l2
