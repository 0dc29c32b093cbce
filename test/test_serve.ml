(* Tests for the simulation service layer: canonical request encoding
   and content hashing (with golden values so an accidental
   canonicalization change fails loudly), protocol framing round
   trips, the two-tier result cache, and an end-to-end serve/submit
   exchange against the real binary. *)

module Serve = Clusteer_serve
module Request = Serve.Request
module Protocol = Serve.Protocol
module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- canonical requests and hashes ------------------------------- *)

let test_canonical_golden () =
  let r = Request.make ~workload:"mcf" () in
  (* The exact canonical bytes: field order, resolved workload name,
     null optionals. If this changes, every existing cache key is
     invalidated — change it deliberately or not at all. *)
  check_string "canonical bytes"
    {|{"v":1,"workload":"181.mcf","phase":0,"clusters":2,"policy":"vc2","uops":20000,"warmup":null,"seed":null,"overrides":{"fp_ratio":null,"mem_ratio":null,"ilp":null,"footprint_kb":null}}|}
    (Request.canonical_string r)

let test_hash_golden () =
  let r = Request.make ~workload:"mcf" () in
  check_string "hash golden" "8c4a02c0bfe2219a" (Request.hash r);
  let r2 =
    Request.make ~workload:"gzip-1" ~phase:1 ~clusters:4
      ~policy:Clusteer.Configuration.Op ~uops:5000
      ~overrides:{ Request.no_overrides with Request.mem_ratio = Some 0.25 }
      ()
  in
  check_string "hash golden 2" "c53785cc4ab8205f" (Request.hash r2)

let test_workload_name_canonicalization () =
  let short = Request.make ~workload:"mcf" () in
  let full = Request.make ~workload:"181.mcf" () in
  check_string "short and full name are one request" (Request.hash short)
    (Request.hash full)

let test_float_encoding_integer_exact () =
  let with_ratio v =
    Request.make ~workload:"mcf"
      ~overrides:{ Request.no_overrides with Request.mem_ratio = Some v }
      ()
  in
  let r = with_ratio 0.3 in
  check_bool "f64 bit pattern on the wire" true
    (let s = Request.canonical_string r in
     let rec contains i =
       i + 4 <= String.length s
       && (String.sub s i 4 = "f64:" || contains (i + 1))
     in
     contains 0);
  (* A decimal float in hand-written input canonicalizes to the same
     bytes (and so the same hash) as the bit-pattern form. *)
  match
    Json.of_string
      {|{"workload":"mcf","overrides":{"mem_ratio":0.3}}|}
  with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Request.of_json doc with
      | Error e -> Alcotest.fail e
      | Ok decoded ->
          check_string "decimal and f64 inputs hash identically"
            (Request.hash r) (Request.hash decoded))

let test_request_roundtrip () =
  let r =
    Request.make ~workload:"gzip-1" ~phase:2 ~clusters:4
      ~policy:Clusteer.Configuration.Crit
      ~uops:7000 ~warmup:1000 ~seed:42
      ~overrides:
        {
          Request.fp_ratio = Some 0.5;
          mem_ratio = None;
          ilp = Some 6;
          footprint_kb = Some 512;
        }
      ()
  in
  match Request.of_json (Request.canonical r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      check_bool "round trip equal" true (Request.equal r r');
      check_string "round trip hash" (Request.hash r) (Request.hash r')

(* The deleted extension baselines are not wire names either. *)
let test_request_rejects_removed_policies () =
  List.iter
    (fun policy ->
      match
        Json.of_string
          (Printf.sprintf {|{"workload":"mcf","policy":%S}|} policy)
      with
      | Error e -> Alcotest.fail e
      | Ok doc ->
          check_bool (policy ^ " rejected") true
            (Result.is_error (Request.of_json doc)))
    [ "thermal"; "mod3"; "modN" ]

let test_request_rejects_unknown_field () =
  match Json.of_string {|{"workload":"mcf","uopss":100}|} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      check_bool "unknown field rejected" true
        (match Request.of_json doc with
        | Error m ->
            (* the message names the offending field *)
            let contains hay needle =
              let n = String.length needle in
              let rec go i =
                i + n <= String.length hay
                && (String.sub hay i n = needle || go (i + 1))
              in
              go 0
            in
            contains m "uopss"
        | Ok _ -> false)

let test_request_rejects_machine_size () =
  List.iter
    (fun clusters ->
      match
        Json.of_string (Printf.sprintf {|{"workload":"mcf","clusters":%d}|} clusters)
      with
      | Error e -> Alcotest.fail e
      | Ok doc ->
          Alcotest.(check (result unit string))
            (Printf.sprintf "clusters %d" clusters)
            (Error "clusters: must be between 1 and 16")
            (Result.map (fun _ -> ()) (Request.of_json doc)))
    [ 0; 17; 100 ]

let test_hash_sensitivity () =
  let base = Request.make ~workload:"mcf" () in
  let variants =
    [
      Request.make ~workload:"mcf" ~uops:20_001 ();
      Request.make ~workload:"mcf" ~policy:Clusteer.Configuration.Op ();
      Request.make ~workload:"mcf" ~seed:1 ();
      Request.make ~workload:"mcf" ~phase:1 ();
      Request.make ~workload:"gzip-1" ();
    ]
  in
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "distinct from %s" (Request.canonical_string v))
        false
        (Request.hash base = Request.hash v))
    variants

(* ---- protocol framing -------------------------------------------- *)

let test_command_roundtrip () =
  let cases =
    [
      Protocol.Simulate
        {
          id = 7;
          deadline_ms = Some 250.;
          request = Request.make ~workload:"mcf" ~uops:3000 ();
        };
      Protocol.Simulate
        { id = 1; deadline_ms = None; request = Request.make ~workload:"mcf" () };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun c ->
      let line = Protocol.encode_command c in
      check_bool "one line" false (String.contains line '\n');
      match Protocol.parse_command line with
      | Error e -> Alcotest.fail e
      | Ok c' ->
          check_string "command round trip" line (Protocol.encode_command c'))
    cases

let test_response_roundtrip () =
  let cases =
    [
      Protocol.Result
        {
          id = 3;
          hash = "0123456789abcdef";
          cached = true;
          result = Json.Obj [ ("x", Json.Int 1) ];
        };
      Protocol.Rejected { id = 4; reason = Protocol.Queue_full };
      Protocol.Rejected { id = 5; reason = Protocol.Timeout };
      Protocol.Rejected
        {
          id = 7;
          reason = Protocol.Check_failed "error[VC005] uop 3: missing leader";
        };
      Protocol.Error_reply { id = 6; message = "boom" };
      Protocol.Stats_reply (Json.Obj [ ("counters", Json.Obj []) ]);
      (* Exposition text rides inside a JSON string: the newlines must
         survive the escape/unescape round trip without breaking the
         one-line-per-response framing. *)
      Protocol.Metrics_reply "# TYPE serve_requests counter\nserve_requests 3\n";
      Protocol.Pong;
      Protocol.Bye;
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.encode_response r in
      match Protocol.parse_response line with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          check_string "response round trip" line (Protocol.encode_response r'))
    cases

let test_result_line_verbatim () =
  let result = {|{"stats":{"ipc":1.25},"weird":  "spacing preserved"}|} in
  let line =
    Protocol.encode_result_line ~id:9 ~hash:"deadbeefdeadbeef" ~cached:false
      ~result
  in
  (* The spliced document's bytes survive untouched. *)
  check_bool "verbatim splice" true
    (let n = String.length line and m = String.length result in
     String.sub line (n - m - 1) m = result);
  match Protocol.parse_response line with
  | Ok (Protocol.Result { id = 9; cached = false; hash = "deadbeefdeadbeef"; _ })
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong response"
  | Error e -> Alcotest.fail e

(* ---- cache: memory tier + disk spill ------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "csteer_cache" "" in
  Sys.remove path;
  path

let test_cache_spill_roundtrip () =
  let registry = Counters.create () in
  let dir = temp_dir () in
  (* Budget fits roughly one entry: storing a second spills the first. *)
  let cache = Serve.Cache.create ~registry ~dir ~budget:64 () in
  let v1 = String.make 40 'x' and v2 = String.make 40 'y' in
  Serve.Cache.store cache "1111111111111111" v1;
  Serve.Cache.store cache "2222222222222222" v2;
  let value name = Counters.value (Counters.counter ~registry name) in
  check_int "first entry spilled" 1 (value "serve.cache.spills");
  check_bool "spill file exists" true
    (Sys.file_exists (Filename.concat dir "1111111111111111.json"));
  (* Disk satisfies the miss and promotes back into memory. *)
  Alcotest.(check (option string)) "disk hit" (Some v1)
    (Serve.Cache.find cache "1111111111111111");
  check_int "counted as hit" 1 (value "serve.cache.hits");
  check_int "counted as disk hit" 1 (value "serve.cache.disk_hits");
  Alcotest.(check (option string)) "absent is a miss" None
    (Serve.Cache.find cache "3333333333333333");
  check_int "miss counted" 1 (value "serve.cache.misses")

(* ---- end to end against the real binary --------------------------- *)

(* ---- admission validation ---------------------------------------- *)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let oversized_vc_request () =
  (* 200 virtual clusters against mcf's ~hundred static uops: the one
     wire-reachable ill-formed request shape (VC010). *)
  match Clusteer.Configuration.of_name "vc200" with
  | Ok policy -> Request.make ~workload:"mcf" ~policy ~uops:2000 ()
  | Error (`Msg m) -> Alcotest.fail m

let test_validate_hook () =
  (* The default hook accepts everything; the analyzer-backed validator
     accepts well-formed requests and pins down ill-formed ones. *)
  let good = Request.make ~workload:"gzip-1" ~uops:2000 () in
  (match Request.check good with Ok () -> () | Error e -> Alcotest.fail e);
  (match Serve.Validate.check good with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Serve.Validate.check (oversized_vc_request ()) with
  | Error m -> check_bool "rejection names VC010" true (contains m "VC010")
  | Ok () -> Alcotest.fail "expected the validator to reject vc200");
  (* Unknown workloads are the resolution step's business — the
     validator waves them through so the server can answer precisely. *)
  (match Serve.Validate.check (Request.make ~workload:"nosuch" ~uops:100 ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The hook is an explicit stub point for tests. *)
  let saved = !Request.check_hook in
  Fun.protect ~finally:(fun () -> Request.check_hook := saved) @@ fun () ->
  Request.check_hook := (fun _ -> Error "stubbed");
  match Request.check good with
  | Error "stubbed" -> ()
  | _ -> Alcotest.fail "stubbed hook was not consulted"

(* Every exchange with a server child is bounded: a starved or wedged
   child fails the test with a message instead of hanging the suite.
   The bounds are generous next to the sub-second exchanges here. *)
let reply_timeout_s = 60.0
let exit_timeout_s = 30.0

let call ~socket commands =
  Serve.Client.call ~timeout_s:reply_timeout_s ~socket commands

let one ~socket command =
  match call ~socket [ command ] with
  | [ r ] -> r
  | _ -> Error "expected exactly one response"

let submit ~socket ?deadline_ms request =
  one ~socket (Protocol.Simulate { id = 0; deadline_ms; request })

let stats ~socket =
  match one ~socket Protocol.Stats with
  | Ok (Protocol.Stats_reply s) -> Ok s
  | Ok _ -> Error "unexpected response to stats"
  | Error e -> Error e

let metrics ~socket =
  match one ~socket Protocol.Metrics with
  | Ok (Protocol.Metrics_reply text) -> Ok text
  | Ok _ -> Error "unexpected response to metrics"
  | Error e -> Error e

let shutdown ~socket =
  match one ~socket Protocol.Shutdown with
  | Ok Protocol.Bye -> Ok ()
  | Ok _ -> Error "unexpected response to shutdown"
  | Error e -> Error e

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

let start_server args =
  let sock = Filename.temp_file "csteer_serve" ".sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ([ exe; "serve"; "--socket"; sock ] @ args))
      null null null
  in
  Unix.close null;
  let rec wait n =
    (* serve unlinks the temp file and rebinds it as a socket *)
    if (try (Unix.stat sock).Unix.st_kind = Unix.S_SOCK with Unix.Unix_error _ -> false)
    then ()
    else if n = 0 then Alcotest.fail "server did not start"
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 200;
  (sock, pid)

(* Wait for the child to exit, polling against a deadline; past it the
   child is killed and the test fails. Returns the exit status and the
   seconds waited. *)
let wait_exit pid =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 > exit_timeout_s then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Alcotest.failf "server %d did not exit within %g s; killed" pid
            exit_timeout_s
        end
        else begin
          Unix.sleepf 0.01;
          poll ()
        end
    | _, status -> (status, Unix.gettimeofday () -. t0)
  in
  poll ()

let stop_server (sock, pid) =
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      (try ignore (shutdown ~socket:sock) with _ -> ());
      ignore (wait_exit pid))

let test_e2e_cache_hit_and_deadlines () =
  let server = start_server [ "--queue-depth"; "2" ] in
  let sock, _ = server in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let req = Request.make ~workload:"gzip-1" ~uops:2000 () in
  (* First submit simulates... *)
  let first =
    match submit ~socket:sock req with
    | Ok (Protocol.Result { cached; hash; result; _ }) ->
        check_bool "first is a miss" false cached;
        check_string "hash echoes" (Request.hash req) hash;
        result
    | Ok _ -> Alcotest.fail "unexpected response"
    | Error e -> Alcotest.fail e
  in
  (* ...the second identical submit is a cache hit with a bit-identical
     result document. *)
  (match submit ~socket:sock req with
  | Ok (Protocol.Result { cached; result; _ }) ->
      check_bool "second is cached" true cached;
      check_string "bit-identical result" (Json.to_string first)
        (Json.to_string result)
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error e -> Alcotest.fail e);
  (* An already-expired deadline is rejected, not simulated. *)
  let uncached = Request.make ~workload:"gzip-1" ~uops:2100 () in
  (match submit ~socket:sock ~deadline_ms:0. uncached with
  | Ok (Protocol.Rejected { reason = Protocol.Timeout; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected a timeout rejection"
  | Error e -> Alcotest.fail e);
  (* An ill-formed request is turned away by the admission checker
     before it reaches a worker. *)
  (match submit ~socket:sock (oversized_vc_request ()) with
  | Ok (Protocol.Rejected { reason = Protocol.Check_failed m; _ }) ->
      check_bool "rejection message names VC010" true (contains m "VC010")
  | Ok _ -> Alcotest.fail "expected a check_failed rejection"
  | Error e -> Alcotest.fail e);
  (* Backpressure: 4 distinct misses against a queue of 2 in one batch. *)
  let cmds =
    List.map
      (fun uops ->
        Protocol.Simulate
          {
            id = uops;
            deadline_ms = None;
            request = Request.make ~workload:"gzip-1" ~uops ();
          })
      [ 1500; 1600; 1700; 1800 ]
  in
  let replies = call ~socket:sock cmds in
  let full, oks =
    List.fold_left
      (fun (full, oks) r ->
        match r with
        | Ok (Protocol.Rejected { reason = Protocol.Queue_full; _ }) ->
            (full + 1, oks)
        | Ok (Protocol.Result _) -> (full, oks + 1)
        | _ -> (full, oks))
      (0, 0) replies
  in
  check_int "two admitted" 2 oks;
  check_int "two pushed back" 2 full;
  (* Duplicate requests inside one batch simulate once, answer twice. *)
  let dup = Request.make ~workload:"gzip-1" ~uops:2200 () in
  let two =
    call ~socket:sock
      [
        Protocol.Simulate { id = 1; deadline_ms = None; request = dup };
        Protocol.Simulate { id = 2; deadline_ms = None; request = dup };
      ]
  in
  (match two with
  | [
   Ok (Protocol.Result { result = ra; _ });
   Ok (Protocol.Result { result = rb; _ });
  ] ->
      check_string "dedup answers identically" (Json.to_string ra)
        (Json.to_string rb)
  | _ -> Alcotest.fail "expected two ok responses");
  (* Counters: hits/misses/simulations are visible over the wire. *)
  match stats ~socket:sock with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      let counter name =
        Option.bind (Json.member "counters" doc) (Json.member name)
        |> Option.map Json.to_int |> Option.join
        |> Option.value ~default:(-1)
      in
      check_int "one hit" 1 (counter "serve.cache.hits");
      check_bool "simulations ran" true (counter "serve.simulations" >= 3);
      check_int "one timeout" 1 (counter "serve.rejected.timeout");
      check_int "two queue-full" 2 (counter "serve.rejected.queue_full");
      check_int "one check failure" 1 (counter "serve.rejected.check_failed");
      (* dedup: 2200-uop request simulated once for two answers *)
      check_int "requests counted" 10 (counter "serve.requests")

let test_e2e_metrics_scrape () =
  let server = start_server [ "--profile" ] in
  let sock, _ = server in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let scrape () =
    match metrics ~socket:sock with
    | Ok text -> text
    | Error e -> Alcotest.fail e
  in
  (* Value of a plain counter sample line, e.g. "serve_requests 3". *)
  let metric_value text name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = name ->
               int_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> None)
    |> Option.value ~default:(-1)
  in
  let before = scrape () in
  check_bool "scrape is typed Prometheus text" true
    (contains before "# TYPE serve_requests counter");
  let r0 = metric_value before "serve_requests" in
  check_bool "request counter present" true (r0 >= 0);
  (match
     submit ~socket:sock
       (Request.make ~workload:"gzip-1" ~uops:1000 ())
   with
  | Ok (Protocol.Result _) -> ()
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error e -> Alcotest.fail e);
  let after = scrape () in
  check_int "serve.requests advances across scrapes" (r0 + 1)
    (metric_value after "serve_requests");
  (* The self-profiler's spans are live in the same scrape. *)
  check_bool "admission span exposed" true
    (contains after "# TYPE profile_serve_admission_ns histogram");
  check_bool "worker engine phases merged in" true
    (contains after "profile_engine_commit_ns_count 1");
  check_bool "quantiles exposed" true
    (contains after "profile_serve_admission_ns_quantile{q=\"0.99\"}")

let test_e2e_shutdown_with_parked_helpers () =
  (* Two workers: a batch of three misses runs on the server's domain
     and one pool helper, which then parks. A shutdown must still end
     the server promptly, with status 0 and its socket removed. The
     jobs either find a warm engine or count the one they created. *)
  let sock, pid = start_server [ "--domains"; "2" ] in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let batch uops =
    List.map
      (fun (id, workload, uops) ->
        Protocol.Simulate
          { id; deadline_ms = None; request = Request.make ~workload ~uops () })
      [
        (1, "gzip-1", uops); (2, "mcf", uops); (3, "gzip-1", uops);
        (4, "gzip-1", uops + 1);
      ]
  in
  let ok replies =
    List.length
      (List.filter
         (function Ok (Protocol.Result _) -> true | _ -> false)
         replies)
  in
  check_int "first batch answered" 4 (ok (call ~socket:sock (batch 1000)));
  check_int "second batch answered" 4 (ok (call ~socket:sock (batch 1100)));
  (match stats ~socket:sock with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      let counter name =
        Option.bind (Json.member "counters" doc) (Json.member name)
        |> Option.map Json.to_int |> Option.join
        |> Option.value ~default:(-1)
      in
      let sims = counter "serve.simulations" in
      let created = counter "serve.engines.created" in
      let reset = counter "serve.engines.reset" in
      check_int "six simulations (one deduplicated per batch)" 6 sims;
      check_int "each simulation counted once" sims (created + reset);
      check_bool
        (Printf.sprintf "at most one engine created per worker (%d)" created)
        true (created <= 2));
  (match shutdown ~socket:sock with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let status, waited = wait_exit pid in
  check_bool "exit status 0" true (status = Unix.WEXITED 0);
  check_bool (Printf.sprintf "exited promptly (%.2f s)" waited) true
    (waited < 5.0);
  check_bool "socket removed" false (Sys.file_exists sock)

let () =
  Alcotest.run "clusteer_serve"
    [
      ( "request",
        [
          Alcotest.test_case "canonical golden" `Quick test_canonical_golden;
          Alcotest.test_case "hash golden" `Quick test_hash_golden;
          Alcotest.test_case "name canonicalization" `Quick
            test_workload_name_canonicalization;
          Alcotest.test_case "integer-exact floats" `Quick
            test_float_encoding_integer_exact;
          Alcotest.test_case "round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "rejects removed policies" `Quick
            test_request_rejects_removed_policies;
          Alcotest.test_case "rejects unknown field" `Quick
            test_request_rejects_unknown_field;
          Alcotest.test_case "rejects machine size" `Quick
            test_request_rejects_machine_size;
          Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "command round trip" `Quick test_command_roundtrip;
          Alcotest.test_case "response round trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "verbatim result splice" `Quick
            test_result_line_verbatim;
        ] );
      ( "cache",
        [
          Alcotest.test_case "disk spill round trip" `Quick
            test_cache_spill_roundtrip;
        ] );
      ( "serve",
        [
          Alcotest.test_case "validate hook" `Quick test_validate_hook;
          Alcotest.test_case "end to end" `Slow test_e2e_cache_hit_and_deadlines;
          Alcotest.test_case "metrics scrape" `Slow test_e2e_metrics_scrape;
          Alcotest.test_case "shutdown with parked helpers" `Slow
            test_e2e_shutdown_with_parked_helpers;
        ] );
    ]
