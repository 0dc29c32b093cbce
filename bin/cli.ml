(* What the csteer subcommands share: the guard every command body runs
   under, the common arguments, workload and fabric resolution, and the
   run-ledger recorder. *)

open Cmdliner
module Config = Clusteer_uarch.Config
module Obs = Clusteer_obs
module Spec2000 = Clusteer_workloads.Spec2000
module Synth = Clusteer_workloads.Synth
module Runner = Clusteer_harness.Runner
module Topology = Clusteer_topo.Topology

(* Every subcommand body runs under this guard: an unwritable output
   path (--trace-out, CSV/report destinations, a dead server socket)
   surfaces as a one-line diagnostic and a non-zero exit, not a raw
   backtrace. *)
let protect f =
  try f () with
  | Sys_error msg ->
      Printf.eprintf "csteer: %s\n" msg;
      exit 1
  | Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "csteer: %s: %s%s\n" fn (Unix.error_message err)
        (if arg = "" then "" else Printf.sprintf " (%s)" arg);
      exit 1

(* A bad value on the command line: one diagnostic line and exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "csteer: %s\n" msg;
      exit 2)
    fmt

let workload_arg =
  let doc = "Workload name (e.g. 181.mcf or just mcf)." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

(* Out-of-range counts are rejected here, before any command builds a
   machine from them. *)
let clusters_arg =
  let doc = "Number of physical clusters." in
  let in_range clusters =
    if clusters < 1 || clusters > Topology.max_clusters then
      usage_error "--clusters must be between 1 and %d (got %d)"
        Topology.max_clusters clusters;
    clusters
  in
  Term.(
    const in_range $ Arg.(value & opt int 2 & info [ "c"; "clusters" ] ~doc))

let topology_arg =
  let doc =
    "Inter-cluster interconnect: $(b,p2p) (the paper's baseline, and the \
     default), $(b,bus), $(b,ring), $(b,mesh)CxR or $(b,hier)GxS (e.g. \
     mesh4x2, hier2x4). p2p/bus/ring take their size from \
     $(b,--clusters); mesh and hier carry their own cluster count."
  in
  Arg.(value & opt (some string) None & info [ "topology" ] ~doc ~docv:"NAME")

(* Every fabric name on the command line resolves here; a name
   [Topology.of_name] refuses is a usage error. *)
let topology_of ~clusters name =
  match Topology.of_name ~clusters name with
  | Ok topo -> topo
  | Error e -> usage_error "%s" e

(* Machine for a cluster count plus an optional --topology override.
   Fixed-size shapes (meshCxR, hierGxS) set the cluster count
   themselves; the parametric shapes take it from --clusters. *)
let machine_of ~clusters = function
  | None -> Config.default ~clusters
  | Some name ->
      let topo = topology_of ~clusters name in
      {
        (Config.default ~clusters:topo.Topology.clusters) with
        Config.topology = topo;
      }

(* Every workload name on the command line resolves here. An unknown
   name is a usage error, diagnosed in one line with exit 2 like the
   other bad arguments. [spec_workload] is the SPEC half, for commands
   that need a multi-phase SPEC point; [workload_of_name] also takes
   the hand-written kernels and the adversarial steering scenarios,
   both explicit single-phase Builder programs. *)
let spec_workload name =
  match Spec2000.find name with
  | p -> p
  | exception Not_found ->
      usage_error "unknown workload %S (try csteer list)" name

let workload_of_name name =
  match
    List.assoc_opt name
      (Clusteer_workloads.Kernels.all @ Clusteer_workloads.Adversarial.all)
  with
  | Some w -> `Synth w
  | None -> `Spec (spec_workload name)

let synth_of_name name =
  match workload_of_name name with `Synth w -> w | `Spec p -> Synth.build p

(* A --benchmarks / -w list of SPEC names, when one was given. *)
let subset_profiles =
  Option.map (fun names ->
      List.map spec_workload (String.split_on_char ',' names))

(* An int option checked before any command runs with it: a value
   [ok] refuses is a usage error, diagnosed in one line with exit 2. *)
let checked_int ~flag ~must ok arg =
  let check v =
    if not (ok v) then usage_error "--%s must be %s (got %d)" flag must v;
    v
  in
  Term.(const check $ arg)

(* Like --clusters, a non-positive count is rejected before any
   command runs with it. *)
let uops_arg ?(doc = "Committed micro-ops to simulate per point.") ?docv
    default =
  checked_int ~flag:"uops" ~must:"positive" (fun n -> n > 0)
    Arg.(value & opt int default & info [ "n"; "uops" ] ~doc ?docv)

(* Flags several subcommands share; each passes its own [doc]. *)
let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let ledger_arg doc =
  Arg.(value & opt (some string) None & info [ "ledger" ] ~doc ~docv:"DIR")

let domains_arg doc =
  let positive = function
    | Some d when d < 1 -> usage_error "--domains must be at least 1 (got %d)" d
    | domains -> domains
  in
  Term.(
    const positive
    $ Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N"))

(* ---- run ledger ----------------------------------------------------- *)

type measurement = {
  started : float;  (** Unix time the run began *)
  wall_s : float;
  gc : Obs.Ledger.gc_delta;
}

let measure f =
  let started = Unix.gettimeofday () in
  let result, wall_s, gc = Runner.measured f in
  (result, { started; wall_s; gc })

(* Record measurement [m] in the ledger at [dir], when one was asked
   for. [uops] defaults to the harness's committed-uop counter and
   [registry], whose snapshot the entry embeds, to the process
   registry. *)
let record dir ~kind ~label ~config ?(outcome = "ok") ?uops
    ?(registry = Obs.Counters.default) m =
  Option.iter
    (fun dir ->
      let uops =
        match uops with
        | Some n -> n
        | None ->
            Obs.Counters.value (Obs.Counters.counter "harness.uops_committed")
      in
      let s =
        Obs.Ledger.append (Obs.Ledger.create ~dir) ~kind ~label ~config
          ~started:m.started ~wall_s:m.wall_s ~outcome ~uops ~gc:m.gc registry
      in
      Printf.eprintf "ledger: run %d recorded in %s\n" s.Obs.Ledger.id dir)
    dir
