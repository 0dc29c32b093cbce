(* The default domain count is capped: experiment sweeps are
   memory-bandwidth heavy and more than [default_domain_cap] domains
   has never paid for itself on the machines we run on. The cap only
   applies to the *default*; an explicit [~domains] is honoured as
   given. *)
let default_domain_cap = 8

let default_domains () = min default_domain_cap (Domain.recommended_domain_count ())

(* OCaml 5 minor collections are stop-the-world across *all* domains:
   every domain must reach a safepoint before any of them can collect.
   Allocation-heavy workers with the default (small) minor heap
   therefore spend most of their time rendezvousing instead of
   simulating — the measured root cause of the PR 2 anti-scaling. A
   larger minor heap divides the rendezvous frequency by the same
   factor. Each domain sizes its own heap once: a helper when it is
   spawned, the caller the first time it runs as worker 0. Nothing is
   restored, so no call pays for a resize (a minor collection each
   way). *)
let grow_minor_heap words =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < words then
    Gc.set { g with Gc.minor_heap_size = words }

(* ---- the pool ----------------------------------------------------- *)

(* Long-lived helper domains, spawned the first time a call needs them
   and parked on [work] between calls. One call owns the pool at a
   time ([owned]); it posts its job as a new [generation], and helpers
   [1 .. wanted] run it while the others stay parked. A helper that
   wakes late reads the current generation, never a finished one: a
   new job is posted only after [running] has dropped to 0. *)
type pool = {
  lock : Mutex.t;
  work : Condition.t;  (* helpers wait here for a new generation *)
  idle : Condition.t;  (* the owner waits here for [running = 0] *)
  mutable spawned : int;
  mutable generation : int;
  mutable job : int -> unit;
  mutable wanted : int;
  mutable running : int;
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    spawned = 0;
    generation = 0;
    job = ignore;
    wanted = 0;
    running = 0;
  }

let owned = Atomic.make false

(* Set in every helper: a [map] made from inside a job runs inline
   rather than waiting on the pool it is part of. *)
let in_helper = Domain.DLS.new_key (fun () -> false)

let helpers () =
  Mutex.lock pool.lock;
  let n = pool.spawned in
  Mutex.unlock pool.lock;
  n

let helper id ~seen ~words =
  Domain.DLS.set in_helper true;
  if words > 0 then grow_minor_heap words;
  let seen = ref seen in
  Mutex.lock pool.lock;
  while true do
    while pool.generation = !seen do
      Condition.wait pool.work pool.lock
    done;
    seen := pool.generation;
    if id <= pool.wanted then begin
      let job = pool.job in
      Mutex.unlock pool.lock;
      (* A job records its own failures; nothing may end the loop. *)
      (try job id with _ -> ());
      Mutex.lock pool.lock;
      pool.running <- pool.running - 1;
      if pool.running = 0 then Condition.signal pool.idle
    end
  done

(* Run [job 0] here and [job 1 .. job helpers] on the pool, which the
   caller owns; returns once every helper is done. *)
let dispatch ~helpers ~words job =
  while pool.spawned < helpers do
    let id = pool.spawned + 1 and seen = pool.generation in
    ignore (Domain.spawn (fun () -> helper id ~seen ~words));
    Mutex.lock pool.lock;
    pool.spawned <- id;
    Mutex.unlock pool.lock
  done;
  Mutex.lock pool.lock;
  pool.job <- job;
  pool.wanted <- helpers;
  pool.running <- helpers;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  job 0;
  Mutex.lock pool.lock;
  while pool.running > 0 do
    Condition.wait pool.idle pool.lock
  done;
  pool.job <- ignore;
  Mutex.unlock pool.lock

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
  let words = Option.value minor_heap_words ~default:0 in
  if n > 0 && words > 0 then grow_minor_heap words;
  if n = 0 then ([], [])
  else if
    workers = 1
    || Domain.DLS.get in_helper
    || not (Atomic.compare_and_set owned false true)
  then
    let state = init 0 in
    (List.map (List.map (f state)) groups, [ state ])
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
    Fun.protect
      ~finally:(fun () -> Atomic.set owned false)
      (fun () -> dispatch ~helpers:(workers - 1) ~words run);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        ( Array.to_list results,
          Array.to_list
            (Array.map (function Some s -> s | None -> assert false) states)
        )
  end
