module Counters = Clusteer_obs.Counters

type t = {
  lru : string Clusteer_util.Lru.t;
  dir : string option;
  hits : Counters.counter;
  disk_hits : Counters.counter;
  misses : Counters.counter;
  evictions : Counters.counter;
  spills : Counters.counter;
}

(* Hashes are [0-9a-f]{16}, so the path needs no sanitizing. *)
let spill_path dir hash = Filename.concat dir (hash ^ ".json")

let write_spill dir hash value =
  Clusteer_util.Fs.mkdir_p dir;
  Clusteer_util.Fs.write_atomic ~path:(spill_path dir hash) (fun oc ->
      output_string oc value)

let read_spill dir hash =
  let path = spill_path dir hash in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let v = really_input_string ic len in
    close_in ic;
    Some v
  end
  else None

let create ?(registry = Counters.default) ?dir ~budget () =
  let t_ref = ref None in
  let on_evict hash value =
    match !t_ref with
    | None -> ()
    | Some t ->
        Counters.incr t.evictions;
        Option.iter
          (fun dir ->
            write_spill dir hash value;
            Counters.incr t.spills)
          t.dir
  in
  let t =
    {
      lru = Clusteer_util.Lru.create ~on_evict ~budget ();
      dir;
      hits = Counters.counter ~registry "serve.cache.hits";
      disk_hits = Counters.counter ~registry "serve.cache.disk_hits";
      misses = Counters.counter ~registry "serve.cache.misses";
      evictions = Counters.counter ~registry "serve.cache.evictions";
      spills = Counters.counter ~registry "serve.cache.spills";
    }
  in
  t_ref := Some t;
  t

let entry_cost hash value = String.length hash + String.length value

let find t hash =
  match Clusteer_util.Lru.find t.lru hash with
  | Some v ->
      Counters.incr t.hits;
      Some v
  | None -> (
      match Option.bind t.dir (fun dir -> read_spill dir hash) with
      | Some v ->
          (* Promote back into memory so a hot entry stops paying the
             disk read; re-admission may spill something colder. *)
          Clusteer_util.Lru.add t.lru hash ~cost:(entry_cost hash v) v;
          Counters.incr t.hits;
          Counters.incr t.disk_hits;
          Some v
      | None ->
          Counters.incr t.misses;
          None)

let store t hash value =
  Clusteer_util.Lru.add t.lru hash ~cost:(entry_cost hash value) value

let length t = Clusteer_util.Lru.length t.lru
