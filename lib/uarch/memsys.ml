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

let prewarm t ~base ~bytes =
  let line = 64 in
  let n = max 1 ((bytes + line - 1) / line) in
  for i = 0 to n - 1 do
    let addr = base + (i * line) in
    Cache.touch t.l2 ~addr;
    Cache.touch t.l1 ~addr
  done

(* The prewarmed state of an all-invalid hierarchy depends only on the
   cache geometries and the range list, up to the caches' recency
   clocks: every configuration of a simulation point prewarms the same
   extents. So each domain keeps the last state it built and restores
   it into the next memory system that asks for the same ranges instead
   of touching every line again ({!Cache.restore}: replacement compares
   recency only within a set, so the restored caches behave exactly
   like re-touched ones). The image is domain-local: concurrent engines
   never share it. *)
type image = {
  mutable ranges : (int * int) list;
  img_l1 : Cache.image;
  img_l2 : Cache.image;
}

let image_slot : image option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* [t] must be all-invalid (just created or reset). *)
let prewarm_ranges t ranges =
  if ranges <> [] then begin
    let slot = Domain.DLS.get image_slot in
    let fits im = Cache.fits im.img_l1 t.l1 && Cache.fits im.img_l2 t.l2 in
    match !slot with
    | Some im when fits im && im.ranges = ranges ->
        Cache.restore im.img_l1 t.l1;
        Cache.restore im.img_l2 t.l2
    | prev -> (
        List.iter (fun (base, bytes) -> prewarm t ~base ~bytes) ranges;
        slot :=
          match prev with
          | Some im when fits im ->
              if Cache.save_into im.img_l1 t.l1 && Cache.save_into im.img_l2 t.l2
              then begin
                im.ranges <- ranges;
                Some im
              end
              else None
          | Some _ | None -> (
              match (Cache.save t.l1, Cache.save t.l2) with
              | Some img_l1, Some img_l2 -> Some { ranges; img_l1; img_l2 }
              | _ -> None))
  end

let prewarm_image_ranges () =
  Option.map (fun im -> im.ranges) !(Domain.DLS.get image_slot)

let drop_prewarm_image () = Domain.DLS.get image_slot := None

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
  Cache.invalidate_all t.l1;
  Cache.invalidate_all t.l2;
  reset_stats t;
  prewarm_ranges t prewarm
