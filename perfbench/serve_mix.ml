(* serve-mixed: one closed-loop client against a [Server.serve] child
   process with 2 worker domains and an on-disk cache directory.

   Batches alternate. A fresh batch holds 5 requests never sent before,
   one in-batch duplicate of them and 2 repeats of earlier requests; the
   batch after it replays an earlier fresh batch verbatim, which the
   cache answers entirely. Requests are drawn from a stream seeded by
   the workload seed over the SPEC points and the op/vc2/ob/rhop
   policies; each new request carries its own trace seed, so the stream
   never runs out of fresh simulations and its mix does not drift over a
   run. No request has a deadline. *)

open Clusteer_uarch
module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters
module Runner = Clusteer_harness.Runner
module Configuration = Clusteer.Configuration
module Server = Clusteer_serve.Server
module Client = Clusteer_serve.Client
module Protocol = Clusteer_serve.Protocol
module Request = Clusteer_serve.Request
module W = Clusteer_workloads

let workers = 2

(* Small enough that a run evicts results to the disk directory, so
   replays of older batches read spilled entries back. *)
let cache_budget = 48 * 1024

(* ---- the server child ------------------------------------------- *)

let child ~socket ~cache_dir ~profile ~stat_file =
  Server.serve
    {
      (Server.default_config ~socket_path:socket) with
      Server.domains = Some workers;
      cache_budget;
      cache_dir = Some cache_dir;
      profile;
    };
  let oc = open_out stat_file in
  Printf.fprintf oc "%.17g\n" (Meter.peak_heap_mb ());
  close_out oc

type server = { pid : int; socket : string; stat_file : string }

let fail fmt = Printf.ksprintf failwith fmt

let ping socket =
  match Client.call_lines ~socket [ Protocol.encode_command Protocol.Ping ] with
  | [ line ] -> (
      match Protocol.parse_response line with Ok Protocol.Pong -> true | _ -> false)
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Spawn the server and wait until its socket answers; returns the
   server and the seconds that took. *)
let spawn ~dir ~profile ~tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let cache_dir = Filename.concat dir (tag ^ "-cache") in
  let stat_file = Filename.concat dir (tag ^ ".stat") in
  let log = Unix.openfile (Filename.concat dir (tag ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = Meter.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-child"; socket; cache_dir; (if profile then "1" else "0"); stat_file |]
      Unix.stdin log log
  in
  Unix.close log;
  let rec wait tries =
    if ping socket then ()
    else if tries = 0 then fail "server %s did not accept within 30 s" socket
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> fail "server %s exited during start-up" socket);
      (* Polled finely: start-up takes 2 to 5 ms, and a coarser poll
         made the measured set-up time jump between two values. *)
      Unix.sleepf 0.0002;
      wait (tries - 1)
    end
  in
  (try wait 150_000
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  ({ pid; socket; stat_file }, Meter.seconds_since t0)

(* Stop the server and return its peak heap in MB. *)
let stop srv =
  let asked = match Client.shutdown ~socket:srv.socket with Ok () -> true | Error _ -> false in
  if not asked then (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  if not asked then fail "server did not accept shutdown";
  let ic = open_in srv.stat_file in
  let mb = float_of_string (String.trim (input_line ic)) in
  close_in ic;
  mb

(* ---- the request stream ------------------------------------------ *)

type req = { request : Request.t; point : W.Pinpoints.point; salt : int }

let policies = Configuration.[ Op; Vc { virtual_clusters = 2 }; Ob; Rhop ]

(* Fresh batches per pass, and new requests per fresh batch: 40, one
   per SPEC trace point. *)
let fresh_per_pass = 8
let new_per_batch = 5

(* The pass's request shapes: (simulation point, policy) for each new
   request of each fresh batch. Each pass asks for the first simulation
   point of every one of the 40 SPEC trace points once, in suite order,
   five to a batch, with the four policies in turn. The shapes are
   fixed because which heavy benchmarks share a batch sets its round
   trip, and the work in a pass should not depend on the seed; the seed
   reaches every request through its trace salt (and picks the repeats
   and replays). Every pass sends the same shapes with new salts:
   equivalent but never-seen simulations. *)
let shapes () =
  let benchmarks = Array.of_list W.Spec2000.all in
  assert (Array.length benchmarks = fresh_per_pass * new_per_batch);
  let policies = Array.of_list policies in
  let pairs =
    Array.mapi
      (fun i profile ->
        (List.hd (W.Pinpoints.points profile), policies.(i mod Array.length policies)))
      benchmarks
  in
  Array.init fresh_per_pass (fun b -> Array.sub pairs (b * new_per_batch) new_per_batch)

let make_req ~uops ~salt ((point : W.Pinpoints.point), policy) =
  let request =
    Request.make ~workload:point.W.Pinpoints.profile.W.Profile.name
      ~phase:point.W.Pinpoints.index ~policy ~uops
      ~seed:(Runner.salted_trace_seed ~salt point) ()
  in
  { request; point; salt }

let command id r =
  Protocol.encode_command
    (Protocol.Simulate { id; deadline_ms = None; request = r.request })

(* The bytes of a response line from its result onwards: what must
   repeat exactly when a batch is replayed. *)
let result_bytes line =
  let key = {|"result":|} in
  let n = String.length key and len = String.length line in
  let rec find i =
    if i + n > len then line
    else if String.sub line i n = key then String.sub line i (len - i)
    else find (i + 1)
  in
  find 0

let json_int = function
  | Some v -> Option.value ~default:0 (Json.to_int v)
  | None -> 0

(* ---- runs --------------------------------------------------------- *)

(* What one pass measured. *)
type pass = {
  fresh_lat : float list;  (** per fresh batch, in shape order *)
  replay_lat : float list;  (** per replay batch *)
  batch_s : float;
  requests : int;
  fresh_uops : int;  (** committed by the server's fresh simulations *)
  fresh_s : float;  (** round trips of the fresh batches *)
  oracle_uops : int;
  oracle_s : float;
  oracle_words : float;
}

(* Totals over the recorded passes, for the traced run. *)
type totals = {
  mutable fresh_sim_uops : int;  (** warmup included *)
  mutable direct_s : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable server_peak_mb : float;
}

(* A replay repeats one of the last [replay_window] fresh batches, whose
   results are still in the in-memory cache tier: the lookup fast path.
   Repeats inside fresh batches reach back over the whole history, so
   they also read entries spilled to disk. *)
let replay_window = 3

(* The direct simulation a served result must equal. *)
let direct r =
  let runs =
    (Runner.run_point
       ~machine:(Config.default ~clusters:r.request.Request.clusters)
       ~configs:[ r.request.Request.policy ] ~uops:r.request.Request.uops
       ~trace_salt:r.salt r.point)
      .Runner.runs
  in
  snd (List.hd runs)

(* One pass alternates fresh and replay batches. [record] is false for
   the warm-up pass, which is checked but not measured. *)
let run ~dir ~host ~seed ~uops ~seconds ~setup_reps ~min_passes ~tally ~traced ~log =
  let sample () = Option.iter Host_speed.sample host in
  sample ();
  let setup =
    List.init setup_reps (fun i ->
        let srv, dt =
          spawn ~dir ~profile:false ~tag:(Printf.sprintf "setup%d" i)
        in
        ignore (stop srv);
        dt)
  in
  let srv, dt = spawn ~dir ~profile:(traced <> None) ~tag:"main" in
  let setup = dt :: setup in
  sample ();
  let shapes = shapes () in
  let rng = Random.State.make [| seed; 0xba7c |] in
  let next_salt = ref (seed * 1_000_003) and next_id = ref 0 in
  let history = ref [||] and seen = ref [||] in
  let totals =
    { fresh_sim_uops = 0; direct_s = 0.0; minor_gcs = 0; major_gcs = 0; server_peak_mb = 0.0 }
  in
  let send lines =
    let t0 = Meter.now_ns () in
    let replies = Client.call_lines ~socket:srv.socket lines in
    let dt = Meter.seconds_since t0 in
    let parsed = List.map Protocol.parse_response replies in
    let bad =
      if List.length replies <> List.length lines then List.length lines
      else
        List.length
          (List.filter (function Ok (Protocol.Result _) -> false | _ -> true) parsed)
    in
    Tally.add tally ~ops:(List.length lines) ~bad "rejected or error reply";
    (replies, parsed, dt)
  in
  (* Re-simulate a served request directly; returns (committed, seconds,
     minor words). *)
  let oracle ~record r served =
    let gc0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let stats, dt = Meter.timed (fun () -> direct r) in
    let words = Gc.minor_words () -. w0 in
    let gc1 = Gc.quick_stat () in
    if record then begin
      totals.direct_s <- totals.direct_s +. dt;
      totals.minor_gcs <- totals.minor_gcs + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      totals.major_gcs <- totals.major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections
    end;
    let same =
      match served with
      | Some (Ok (Protocol.Result { result; _ })) -> (
          match Json.member "stats" result with
          | Some s -> String.equal (Json.to_string s) (Json.to_string (Stats.to_json stats))
          | None -> false)
      | _ -> false
    in
    Tally.add tally ~ops:1 ~bad:(if same then 0 else 1) "served = direct Runner.run_point";
    Option.iter (fun f -> f r stats dt) traced;
    (stats.Stats.committed, dt, words)
  in
  let fresh_batch ~record shape =
    let fresh =
      Array.to_list
        (Array.map (fun sh -> incr next_salt; make_req ~uops ~salt:!next_salt sh) shape)
    in
    let repeats =
      if !seen = [||] then []
      else List.init 2 (fun _ -> !seen.(Random.State.int rng (Array.length !seen)))
    in
    let reqs = fresh @ [ List.hd fresh ] @ repeats in
    let lines = List.map (fun r -> incr next_id; command !next_id r) reqs in
    let replies, parsed, dt = send lines in
    let uops = ref 0 in
    List.iter
      (function
        | Ok (Protocol.Result { cached = false; result; _ }) ->
            let c = json_int (Option.bind (Json.member "stats" result) (Json.member "committed")) in
            uops := !uops + c;
            if record then
              totals.fresh_sim_uops <-
                totals.fresh_sim_uops + c + json_int (Json.member "warmup" result)
        | _ -> ())
      parsed;
    seen := Array.append !seen (Array.of_list fresh);
    history := Array.append !history [| (lines, replies) |];
    let oracle = oracle ~record (List.hd fresh) (List.nth_opt parsed 0) in
    (dt, List.length lines, !uops, oracle)
  in
  let replay_batch () =
    let k = Array.length !history in
    let lines, first = !history.(k - 1 - Random.State.int rng (min replay_window k)) in
    let replies, _, dt = send lines in
    let differ =
      if List.length replies <> List.length first then List.length lines
      else
        List.length
          (List.filter
             (fun (a, b) -> not (String.equal (result_bytes a) (result_bytes b)))
             (List.combine first replies))
    in
    Tally.add tally ~ops:(List.length lines) ~bad:differ "replay bytes";
    (dt, List.length lines)
  in
  let one_pass ~record =
    let batches =
      Array.to_list
        (Array.map
           (fun shape ->
             let fresh = fresh_batch ~record shape in
             (fresh, replay_batch ()))
           shapes)
    in
    let sum f = List.fold_left (fun a b -> a +. f b) 0.0 batches in
    let isum f = List.fold_left (fun a b -> a + f b) 0 batches in
    {
      fresh_lat = List.map (fun ((dt, _, _, _), _) -> dt) batches;
      replay_lat = List.map (fun (_, (dt, _)) -> dt) batches;
      batch_s = sum (fun ((f, _, _, _), (r, _)) -> f +. r);
      requests = isum (fun ((_, n, _, _), (_, m)) -> n + m);
      fresh_uops = isum (fun ((_, _, u, _), _) -> u);
      fresh_s = sum (fun ((dt, _, _, _), _) -> dt);
      oracle_uops = isum (fun ((_, _, _, (c, _, _)), _) -> c);
      oracle_s = sum (fun ((_, _, _, (_, dt, _)), _) -> dt);
      oracle_words = sum (fun ((_, _, _, (_, _, w)), _) -> w);
    }
  in
  let passes = ref [] in
  let server_stats = ref None in
  let peak = ref 0.0 in
  (try
     (* This process's heap peak after direct 1-domain simulations of
        the first shape of every fresh batch on the canonical trace
        streams (salt 0): the same work whatever the seed. With the
        seed's own streams the peak moved in steps of a heap increment,
        from 5 to 7.5 MB, between seeds. The server's own peak depends
        on how its two workers interleave (14 to 20 MB across runs of
        one seed), so it is only reported by the traced run. *)
     Array.iter (fun shape -> ignore (direct (make_req ~uops ~salt:0 shape.(0)))) shapes;
     peak := Meter.peak_heap_mb ();
     ignore (one_pass ~record:false);
     sample ();
     let deadline = Meter.now_ns () + int_of_float (seconds *. 1e9) in
     while List.length !passes < min_passes || Meter.now_ns () < deadline do
       let p = one_pass ~record:true in
       sample ();
       log
         (Printf.sprintf "pass: %.0f uop/s served, %.1f req/s (unscaled)"
            (Meter.ratio (float_of_int p.fresh_uops) p.fresh_s)
            (Meter.ratio (float_of_int p.requests) p.batch_s));
       passes := p :: !passes
     done;
     if traced <> None then
       server_stats := Result.to_option (Client.stats ~socket:srv.socket)
   with e -> Tally.add tally ~ops:1 ~bad:1 ("client raised " ^ Printexc.to_string e));
  totals.server_peak_mb <- stop srv;
  let passes = !passes in
  if passes = [] then failwith "no pass completed";
  (* The client's direct simulations run on this process's one domain;
     the rest spans the server's domains and this process. 1 in the
     traced run, which reports host times unscaled. *)
  let k1, k =
    match host with
    | Some h -> (Host_speed.own h, Host_speed.all h)
    | None -> (1.0, 1.0)
  in
  (* A batch's round trip stands for each of its 8 requests, so the
     percentiles over batches are those over requests. *)
  let fresh = List.concat_map (fun p -> p.fresh_lat) passes in
  let replay = List.concat_map (fun p -> p.replay_lat) passes in
  log
    (Printf.sprintf
       "serve-mixed: %d passes of %d fresh and %d replay batches (8 requests each), \
        %d setups; host index %.3f (own CPU), %.3f (all)"
       (List.length passes) fresh_per_pass fresh_per_pass (List.length setup) k1 k);
  let med f = Meter.median (List.map f passes) in
  let rate f = med f *. k and ms x = x *. 1000.0 /. k in
  let metrics =
    [
      ( "uops_per_s",
        "uop/s",
        med (fun p -> Meter.ratio (float_of_int p.oracle_uops) p.oracle_s) *. k1 );
      ("uops_per_s_2d", "uop/s", rate (fun p -> Meter.ratio (float_of_int p.fresh_uops) p.fresh_s));
      ("setup_s", "s", Meter.median setup /. k);
      ( "minor_words_per_uop",
        "words/uop",
        med (fun p -> Meter.ratio p.oracle_words (float_of_int p.oracle_uops)) );
      ("peak_heap_mb", "MB", !peak);
      ("req_per_s", "1/s", rate (fun p -> Meter.ratio (float_of_int p.requests) p.batch_s));
      ("latency_p50_ms", "ms", ms (Meter.quantile fresh 0.5));
      ("latency_p90_ms", "ms", ms (Meter.quantile fresh 0.9));
      ("replay_latency_p50_ms", "ms", ms (Meter.quantile replay 0.5));
    ]
  in
  (metrics, totals, !server_stats)

(* ---- serve-layer metrics from the server's [stats] reply ---------- *)

let p95_of_buckets h =
  (* Same rule as Counters.percentile: linear inside the bucket holding
     the rank, clamped to the largest value observed. *)
  let int k = Option.bind (Json.member k h) Json.to_int |> Option.value ~default:0 in
  let count = int "count" and vmax = int "max" in
  let buckets =
    Option.bind (Json.member "buckets" h) Json.to_list |> Option.value ~default:[]
    |> List.map (fun b -> Option.value ~default:0 (Json.to_int b))
  in
  if count = 0 then 0.0
  else
    let rank = 0.95 *. float_of_int count in
    let rec go i seen = function
      | [] -> float_of_int vmax
      | n :: rest ->
          if n > 0 && float_of_int (seen + n) >= rank then
            let lo = float_of_int (Counters.bucket_lo i) in
            let hi = float_of_int (min vmax (Counters.bucket_hi i)) in
            let frac = (rank -. float_of_int seen) /. float_of_int n in
            Float.min (float_of_int vmax) (lo +. (frac *. (hi -. lo)))
          else go (i + 1) (seen + n) rest
    in
    go 0 0 buckets

let hist_sum stats k =
  Option.bind stats (Json.member "histograms")
  |> Fun.flip Option.bind (Json.member k)
  |> Fun.flip Option.bind (Json.member "sum")
  |> Fun.flip Option.bind Json.to_int
  |> Option.fold ~none:0.0 ~some:float_of_int

let serve_layer ~peak_mb stats =
  let counters = Option.bind stats (Json.member "counters") in
  let hists = Option.bind stats (Json.member "histograms") in
  let counter k =
    Option.bind counters (Json.member k) |> Fun.flip Option.bind Json.to_int
    |> Option.value ~default:0 |> float_of_int
  in
  let hist k = Option.bind hists (Json.member k) in
  let mean k =
    Option.bind (hist k) (Json.member "mean") |> Fun.flip Option.bind Json.to_float
    |> Option.value ~default:0.0
  in
  let rejected =
    match counters with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            if String.length k > 14 && String.sub k 0 14 = "serve.rejected" then
              acc + Option.value ~default:0 (Json.to_int v)
            else acc)
          0 kvs
    | _ -> 0
  in
  let hits = counter "serve.cache.hits" and misses = counter "serve.cache.misses" in
  [
    ("serve.admission_ms", "ms", mean "profile.serve.admission.ns" *. 1e-6);
    ("serve.dispatch_ms", "ms", mean "profile.serve.dispatch.ns" *. 1e-6);
    ("serve.cache_lookup_us", "us", mean "profile.serve.cache_lookup.ns" *. 1e-3);
    ("serve.hit_ratio", "frac", Meter.ratio hits (hits +. misses));
    ("serve.simulations", "count", counter "serve.simulations");
    ( "serve.queue_depth_p95",
      "count",
      match hist "serve.queue.depth" with Some h -> p95_of_buckets h | None -> 0.0 );
    ("serve.cache_spills", "count", counter "serve.cache.spills");
    ("serve.rejected", "count", float_of_int rejected);
    ("serve.peak_heap_mb", "MB", peak_mb);
  ]
