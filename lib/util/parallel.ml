(* The default domain count is capped: experiment sweeps are
   memory-bandwidth heavy and more than [default_domain_cap] domains
   has never paid for itself on the machines we run on. The cap only
   applies to the *default*; an explicit [~domains] is honoured as
   given. *)
let default_domain_cap = 8

let default_domains () = min default_domain_cap (Domain.recommended_domain_count ())

(* OCaml 5 minor collections are stop-the-world across *all* domains:
   every domain must reach a safepoint before any of them can collect.
   Allocation-heavy shards with the default (small) minor heap
   therefore spend most of their time rendezvousing instead of
   simulating — the measured root cause of the PR 2 anti-scaling.
   Enlarging the minor heap for the duration of a parallel region
   divides the rendezvous frequency by the same factor. The parent's
   setting is enlarged before spawning (so helpers inherit it) and
   restored after the join; helpers additionally apply it themselves
   in case the runtime snapshots parameters at spawn time. *)
let grow_minor_heap words =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < words then
    Gc.set { g with Gc.minor_heap_size = words }

let with_minor_heap words f =
  match words with
  | None -> f ()
  | Some w ->
      let saved = (Gc.get ()).Gc.minor_heap_size in
      if saved >= w then f ()
      else begin
        grow_minor_heap w;
        Fun.protect
          ~finally:(fun () ->
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved })
          f
      end

exception Poisoned

(* One cursor over the groups: a worker claims the next unclaimed
   group whenever it is free, so slow groups spread over the workers
   instead of queueing behind each other on one. A group runs whole on
   its worker, which is what lets per-worker caches hit. The failure
   flag is read before every element, not every group: a poisoned run
   stops after the in-flight element even inside a large group. *)
let map ?domains ?minor_heap_words ~init ~f groups =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let input = Array.of_list groups in
  let n = Array.length input in
  let workers = min domains n in
  if n = 0 then ([], [])
  else if workers = 1 then
    with_minor_heap minor_heap_words (fun () ->
        let state = init 0 in
        (List.map (List.map (f state)) groups, [ state ]))
  else begin
    let results = Array.make n [] in
    let states = Array.make workers None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    let run w =
      try
        let state = init w in
        states.(w) <- Some state;
        let element x =
          if Option.is_some (Atomic.get failure) then raise_notrace Poisoned;
          f state x
        in
        let rec claim () =
          let g = Atomic.fetch_and_add cursor 1 in
          if g < n then begin
            results.(g) <- List.map element input.(g);
            claim ()
          end
        in
        claim ()
      with
      | Poisoned -> ()
      | e ->
          (* First failure wins; keep its backtrace so the caller
             sees where the worker actually died. *)
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    with_minor_heap minor_heap_words (fun () ->
        let helpers =
          List.init (workers - 1) (fun k ->
              Domain.spawn (fun () ->
                  Option.iter grow_minor_heap minor_heap_words;
                  run (k + 1)))
        in
        run 0;
        List.iter Domain.join helpers);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        ( Array.to_list results,
          Array.to_list
            (Array.map (function Some s -> s | None -> assert false) states)
        )
  end
