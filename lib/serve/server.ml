module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters
module Expo = Clusteer_obs.Expo
module Prof = Clusteer_obs.Profile
module Ledger = Clusteer_obs.Ledger
module Profile = Clusteer_workloads.Profile
module Spec2000 = Clusteer_workloads.Spec2000
module Pinpoints = Clusteer_workloads.Pinpoints
module Runner = Clusteer_harness.Runner
module Energy = Clusteer_uarch.Energy

type config = {
  socket_path : string;
  queue_depth : int;
  domains : int option;
  cache_budget : int;
  cache_dir : string option;
  ledger_dir : string option;
  profile : bool;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    queue_depth = 64;
    domains = None;
    cache_budget = 64 * 1024 * 1024;
    cache_dir = None;
    ledger_dir = None;
    profile = false;
    log = (fun _ -> ());
  }

(* Server-side profiler spans: the batch cycle is single-threaded (the
   worker pool parallelism lives inside the dispatch span), so these
   observe straight into the server registry. *)
type prof_spans = {
  p_admission : Prof.span;
  p_dispatch : Prof.span;
  p_cache : Prof.span;
}

type t = {
  cfg : config;
  registry : Counters.registry;
  cache : Cache.t;
  profiled : bool;  (* give each worker job a per-registry profiler *)
  prof : prof_spans option;
  ledger : Ledger.t option;
  requests : Counters.counter;
  batches : Counters.counter;
  rej_queue_full : Counters.counter;
  rej_timeout : Counters.counter;
  rej_check : Counters.counter;
  errors : Counters.counter;
  queue_depth_h : Counters.histogram;
  batch_size_h : Counters.histogram;
  latency_us_h : Counters.histogram;
}

(* ---- request resolution and execution ---------------------------- *)

let resolve (req : Request.t) =
  match Spec2000.find req.Request.workload with
  | exception Not_found ->
      Error (Printf.sprintf "unknown workload %S" req.Request.workload)
  | profile -> (
      match
        let profile = Request.apply_overrides profile req.Request.overrides in
        Profile.validate profile;
        profile
      with
      | exception Invalid_argument m -> Error m
      | profile -> (
          let points = Pinpoints.points profile in
          match List.nth_opt points req.Request.phase with
          | Some point -> Ok point
          | None ->
              Error
                (Printf.sprintf "workload %s has only %d phases"
                   req.Request.workload (List.length points))))

(* Run one admitted request against a private registry, on the
   worker domain's reuse context: a repeated shape finds its workload,
   annotation and engine there. The result document is a pure function
   of the canonical request (PR 2's determinism guarantee), which is
   what makes the cached bytes replayable verbatim. The job counts in
   [serve.engines.reset] when its engine was reset in place, and in
   [serve.engines.created] when it had to be built. *)
let execute ~registry ?(profiled = false) (req : Request.t)
    (point : Pinpoints.point) =
  let machine =
    Clusteer_uarch.Config.default ~clusters:req.Request.clusters
  in
  let profile = if profiled then Some (Prof.create ~registry ()) else None in
  let seed =
    match req.Request.seed with
    | Some s -> s
    | None -> Runner.trace_seed point
  in
  let warmup =
    match req.Request.warmup with
    | Some w -> w
    | None -> Runner.default_warmup req.Request.uops
  in
  let created = (Runner.engine_tally ()).Runner.created in
  let { Runner.runs; _ } =
    Runner.run_point ~warmup ~seed ~registry ?profile ~machine
      ~configs:[ req.Request.policy ] ~uops:req.Request.uops point
  in
  Counters.incr
    (Counters.counter ~registry
       (if (Runner.engine_tally ()).Runner.created > created then
          "serve.engines.created"
        else "serve.engines.reset"));
  let name, stats = List.hd runs in
  Json.Obj
    [
      ("workload", Json.Str req.Request.workload);
      ("phase", Json.Int req.Request.phase);
      ("config", Json.Str name);
      ("clusters", Json.Int req.Request.clusters);
      ("uops", Json.Int req.Request.uops);
      ("warmup", Json.Int warmup);
      ("seed", Json.Int seed);
      ("stats", Clusteer_uarch.Stats.to_json stats);
      ( "energy",
        Energy.to_json (Energy.estimate ~clusters:req.Request.clusters stats) );
    ]

(* ---- batch cycle -------------------------------------------------- *)

type job = {
  request : Request.t;
  rhash : string;
  point : Pinpoints.point;
  deadline : float option;  (* absolute seconds, epoch scale *)
  arrived : float;
  mutable slots : (int * int) list;
      (** (line index, protocol id) to answer — head is the admitting
          command, the rest are same-batch duplicates folded in *)
}

type outcome = O_timeout | O_error of string | O_done of string * float

(* Handle one connection's command lines; returns the response lines
   (one per command, in order), whether shutdown was requested, and
   the committed micro-ops of the batch's fresh simulations (what the
   ledger attributes the batch's GC allocation to). *)
let handle_batch t lines =
  let n = List.length lines in
  Counters.incr t.batches;
  Counters.observe t.batch_size_h n;
  let responses = Array.make n "" in
  let set i r = responses.(i) <- Protocol.encode_response r in
  let stats_slots = ref [] in
  let metrics_slots = ref [] in
  let jobs = ref [] in
  let inflight : (string, job) Hashtbl.t = Hashtbl.create 8 in
  let shutdown = ref false in
  (match t.prof with Some p -> Prof.enter p.p_admission | None -> ());
  List.iteri
    (fun i line ->
      match Protocol.parse_command line with
      | Error m ->
          Counters.incr t.errors;
          set i (Protocol.Error_reply { id = 0; message = m })
      | Ok Protocol.Ping -> set i Protocol.Pong
      | Ok Protocol.Shutdown ->
          shutdown := true;
          set i Protocol.Bye
      | Ok Protocol.Stats -> stats_slots := i :: !stats_slots
      | Ok Protocol.Metrics -> metrics_slots := i :: !metrics_slots
      | Ok (Protocol.Simulate { id; deadline_ms; request }) -> (
          Counters.incr t.requests;
          match resolve request with
          | Error message ->
              Counters.incr t.errors;
              set i (Protocol.Error_reply { id; message })
          | Ok point -> (
              let now = Unix.gettimeofday () in
              let rhash = Request.hash request in
              let lookup =
                match t.prof with
                | Some p ->
                    Prof.time p.p_cache (fun () -> Cache.find t.cache rhash)
                | None -> Cache.find t.cache rhash
              in
              match lookup with
              | Some cached ->
                  (* The fast path of the whole subsystem: a repeat
                     request is answered from the table, not re-run —
                     the cached bytes are spliced back verbatim. *)
                  Counters.observe t.latency_us_h 0;
                  responses.(i) <-
                    Protocol.encode_result_line ~id ~hash:rhash ~cached:true
                      ~result:cached
              | None ->
                  if (match deadline_ms with Some d -> d <= 0. | None -> false)
                  then begin
                    Counters.incr t.rej_timeout;
                    set i (Protocol.Rejected { id; reason = Protocol.Timeout })
                  end
                  else begin
                    match Request.check request with
                    | Error message ->
                        (* Admission-time static verification: an
                           ill-formed request never reaches a worker. *)
                        Counters.incr t.rej_check;
                        set i
                          (Protocol.Rejected
                             {
                               id;
                               reason = Protocol.Check_failed message;
                             })
                    | Ok () -> (
                    match Hashtbl.find_opt inflight rhash with
                    | Some job -> job.slots <- job.slots @ [ (i, id) ]
                    | None ->
                        if Hashtbl.length inflight >= t.cfg.queue_depth then begin
                          Counters.incr t.rej_queue_full;
                          set i
                            (Protocol.Rejected
                               { id; reason = Protocol.Queue_full })
                        end
                        else begin
                          let job =
                            {
                              request;
                              rhash;
                              point;
                              deadline =
                                Option.map
                                  (fun ms -> now +. (ms /. 1000.))
                                  deadline_ms;
                              arrived = now;
                              slots = [ (i, id) ];
                            }
                          in
                          Hashtbl.add inflight rhash job;
                          jobs := job :: !jobs;
                          Counters.observe t.queue_depth_h
                            (Hashtbl.length inflight)
                        end)
                  end)))
    lines;
  (match t.prof with
  | Some p ->
      Prof.leave p.p_admission;
      Prof.flush p.p_admission
  | None -> ());
  (* Dispatch oldest-deadline-first; deadline-free work runs last, in
     arrival order. *)
  let queue =
    List.stable_sort
      (fun a b ->
        let d = function Some x -> x | None -> infinity in
        compare (d a.deadline, a.arrived) (d b.deadline, b.arrived))
      (List.rev !jobs)
  in
  (match t.prof with Some p -> Prof.enter p.p_dispatch | None -> ());
  let outcomes =
    (* Each job is claimed on its own by whichever worker is free, in
       queue order, so the deadline check happens when a worker
       actually reaches the job. Jobs run against their worker's
       private registry, merged into the server's once the batch is
       done. *)
    Runner.map_isolated ?domains:t.cfg.domains ~into:t.registry
      (fun ~registry job ->
        let now = Unix.gettimeofday () in
        match job.deadline with
        | Some d when now >= d -> O_timeout
        | _ -> (
            Counters.incr (Counters.counter ~registry "serve.simulations");
            match
              execute ~registry ~profiled:t.profiled job.request job.point
            with
            | result -> O_done (Json.to_string result, Unix.gettimeofday ())
            | exception e -> O_error (Printexc.to_string e)))
      queue
  in
  (match t.prof with
  | Some p ->
      Prof.leave p.p_dispatch;
      Prof.flush p.p_dispatch
  | None -> ());
  let sim_uops =
    List.fold_left2
      (fun acc job outcome ->
        match outcome with
        | O_done _ -> acc + job.request.Request.uops
        | O_timeout | O_error _ -> acc)
      0 queue outcomes
  in
  List.iter2
    (fun job outcome ->
      match outcome with
      | O_timeout ->
          List.iter
            (fun (i, id) ->
              Counters.incr t.rej_timeout;
              set i (Protocol.Rejected { id; reason = Protocol.Timeout }))
            job.slots
      | O_error message ->
          List.iter
            (fun (i, id) ->
              Counters.incr t.errors;
              set i (Protocol.Error_reply { id; message }))
            job.slots
      | O_done (result, finished) ->
          Cache.store t.cache job.rhash result;
          let us = int_of_float ((finished -. job.arrived) *. 1e6) in
          List.iter
            (fun (i, id) ->
              Counters.observe t.latency_us_h us;
              responses.(i) <-
                Protocol.encode_result_line ~id ~hash:job.rhash ~cached:false
                  ~result)
            job.slots)
    queue outcomes;
  (* Stats and metrics snapshots see the whole batch they arrived in. *)
  let stats = lazy (Protocol.encode_response
                      (Protocol.Stats_reply (Counters.to_json t.registry))) in
  List.iter (fun i -> responses.(i) <- Lazy.force stats) !stats_slots;
  let metrics =
    lazy
      (Protocol.encode_response
         (Protocol.Metrics_reply (Expo.render t.registry)))
  in
  List.iter (fun i -> responses.(i) <- Lazy.force metrics) !metrics_slots;
  (Array.to_list responses, !shutdown, sim_uops)

(* ---- socket loop -------------------------------------------------- *)

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let serve ?(registry = Counters.default) cfg =
  (match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ());
  (* A ledger needs phase timings in its snapshots, so asking for a
     ledger turns the profiler on too. *)
  let profiled = cfg.profile || cfg.ledger_dir <> None in
  let t =
    {
      cfg;
      registry;
      cache =
        Cache.create ~registry ?dir:cfg.cache_dir ~budget:cfg.cache_budget ();
      profiled;
      prof =
        (if profiled then
           let p = Prof.create ~registry () in
           Some
             {
               p_admission = Prof.span p "serve.admission";
               p_dispatch = Prof.span p "serve.dispatch";
               p_cache = Prof.span p "serve.cache_lookup";
             }
         else None);
      ledger = Option.map (fun dir -> Ledger.create ~dir) cfg.ledger_dir;
      requests = Counters.counter ~registry "serve.requests";
      batches = Counters.counter ~registry "serve.batches";
      rej_queue_full = Counters.counter ~registry "serve.rejected.queue_full";
      rej_timeout = Counters.counter ~registry "serve.rejected.timeout";
      rej_check = Counters.counter ~registry "serve.rejected.check_failed";
      errors = Counters.counter ~registry "serve.errors";
      queue_depth_h = Counters.histogram ~registry "serve.queue.depth";
      batch_size_h = Counters.histogram ~registry "serve.batch.size";
      latency_us_h = Counters.histogram ~registry "serve.latency.us";
    }
  in
  (* Pre-intern the counters the worker pool merges back, so a stats
     snapshot taken before the first simulation already lists them. *)
  ignore (Counters.counter ~registry "serve.simulations");
  ignore (Counters.counter ~registry "serve.engines.created");
  ignore (Counters.counter ~registry "serve.engines.reset");
  Validate.install ();
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path)
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 16;
  cfg.log (Printf.sprintf "listening on %s" cfg.socket_path);
  let stop = ref false in
  while not !stop do
    let fd, _ = Unix.accept sock in
    (try
       let ic = Unix.in_channel_of_descr fd in
       let oc = Unix.out_channel_of_descr fd in
       let lines = read_lines ic in
       let started = Unix.gettimeofday () in
       let gc0 = Ledger.gc_now () in
       let replies, shutdown, sim_uops = handle_batch t lines in
       (match t.ledger with
       | None -> ()
       | Some ledger ->
           let wall_s = Unix.gettimeofday () -. started in
           let gc = Ledger.gc_sub (Ledger.gc_now ()) gc0 in
           let batch = Counters.value t.batches in
           ignore
             (Ledger.append ledger ~kind:"serve_batch"
                ~label:(Printf.sprintf "batch-%d" batch)
                ~config:
                  (Json.Obj [ ("commands", Json.Int (List.length lines)) ])
                ~started ~wall_s ~outcome:"ok" ~uops:sim_uops ~gc t.registry));
       List.iter
         (fun r ->
           output_string oc r;
           output_char oc '\n')
         replies;
       flush oc;
       if shutdown then stop := true;
       cfg.log
         (Printf.sprintf "batch: %d command(s)%s" (List.length lines)
            (if shutdown then ", shutting down" else ""))
     with e -> cfg.log (Printf.sprintf "connection error: %s" (Printexc.to_string e)));
    (try Unix.close fd with Unix.Unix_error _ -> ())
  done;
  Unix.close sock;
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path
