open Clusteer_uarch
open Clusteer_workloads
module Table = Clusteer_util.Table
module Csv = Clusteer_util.Csv
module Bitset = Clusteer_util.Bitset

type suite_run = {
  machine : Config.t;
  uops : int;
  results : (Profile.t * Runner.point_result list) list;
}

let default_uops = 20_000

let run_sweep ~machine ~configs ?(uops = default_uops)
    ?(profiles = Spec2000.all) ?(progress = fun _ -> ()) ?domains ?profiled ()
    =
  (* Simulation points are independent; the runner shards them across
     domains at point granularity (finer than per-benchmark, so large
     benchmarks don't serialize the tail) with per-shard counter
     registries. Results keep input order, so parallel sweeps are
     bit-identical to sequential ones. *)
  let results =
    Runner.run_grouped ~progress ?domains ?profiled ~machine ~configs ~uops
      profiles
  in
  { machine; uops; results }

let run_2cluster ?uops ?profiles ?progress ?domains ?profiled () =
  run_sweep ~machine:Config.default_2c
    ~configs:(Clusteer.Configuration.table3 ~clusters:2)
    ?uops ?profiles ?progress ?domains ?profiled ()

let run_4cluster ?uops ?profiles ?progress ?domains ?profiled () =
  run_sweep ~machine:Config.default_4c
    ~configs:(Clusteer.Configuration.table3 ~clusters:4)
    ?uops ?profiles ?progress ?domains ?profiled ()

(* ---- Figures 5 and 7: slowdown vs OP ----------------------------- *)

type slowdown_row = {
  bench : string;
  suite : Profile.suite;
  slowdowns : (string * float) list;
}

type slowdown_figure = {
  rows : slowdown_row list;
  int_avg : (string * float) list;
  fp_avg : (string * float) list;
  cpu_avg : (string * float) list;
}

let config_names run =
  match run.results with
  | (_, r :: _) :: _ -> List.map fst r.Runner.runs
  | _ -> []

let non_baseline_configs run =
  List.filter (fun n -> n <> "op") (config_names run)

let slowdown_figure_of run =
  let configs = non_baseline_configs run in
  let rows =
    List.map
      (fun ((profile : Profile.t), points) ->
        let slowdowns =
          List.map
            (fun config ->
              let s =
                Runner.weighted_pair_metric points ~config_a:config
                  ~config_b:"op" ~f:(fun a b ->
                    Metrics.slowdown_pct ~baseline:b a)
              in
              (config, s))
            configs
        in
        { bench = profile.Profile.name; suite = profile.Profile.suite; slowdowns })
      run.results
  in
  let avg_over pred =
    let selected = List.filter (fun r -> pred r.suite) rows in
    List.map
      (fun config ->
        let values =
          List.map (fun r -> List.assoc config r.slowdowns) selected
        in
        let mean =
          if values = [] then 0.0
          else Clusteer_util.Stats.mean (Array.of_list values)
        in
        (config, mean))
      configs
  in
  {
    rows;
    int_avg = avg_over (fun s -> s = Profile.Spec_int);
    fp_avg = avg_over (fun s -> s = Profile.Spec_fp);
    cpu_avg = avg_over (fun _ -> true);
  }

let figure5_of = slowdown_figure_of
let figure7_of = slowdown_figure_of

let print_slowdown_figure ~title fig =
  let configs = List.map fst (List.nth fig.rows 0).slowdowns in
  let header = Array.of_list ("benchmark" :: configs) in
  let row_of name slowdowns =
    Array.of_list
      (name
      :: List.map (fun c -> Table.fmt_percent (List.assoc c slowdowns)) configs)
  in
  let rows =
    List.map (fun r -> row_of r.bench r.slowdowns) fig.rows
    @ [
        row_of "INT AVG" fig.int_avg;
        row_of "FP AVG" fig.fp_avg;
        row_of "CPU2000 AVG" fig.cpu_avg;
      ]
  in
  print_endline title;
  print_string (Table.render ~header rows)

(* ---- Figure 6: scatter data --------------------------------------- *)

type scatter_point = {
  trace : string;
  speedup : float;
  copy_reduction : float;
  balance_improvement : float;
}

type scatter_figure = {
  vs_ob : scatter_point list;
  vs_rhop : scatter_point list;
  vs_op : scatter_point list;
}

let vc_config_name run =
  (* The 2-VC hybrid on a 2-cluster machine, VC(2->4) on 4 clusters. *)
  match List.find_opt (fun n -> n = "vc2") (config_names run) with
  | Some n -> n
  | None -> (
      match
        List.find_opt
          (fun n -> String.length n > 2 && String.sub n 0 2 = "vc")
          (config_names run)
      with
      | Some n -> n
      | None -> invalid_arg "Experiments: no VC configuration in run")

let scatter_against run ~other =
  let vc = vc_config_name run in
  List.concat_map
    (fun ((profile : Profile.t), points) ->
      List.map
        (fun (r : Runner.point_result) ->
          let stats c = List.assoc c r.Runner.runs in
          let vc_s = stats vc and other_s = stats other in
          {
            trace =
              Printf.sprintf "%s/%d" profile.Profile.name
                r.Runner.point.Pinpoints.index;
            speedup = Metrics.speedup_pct ~of_:vc_s ~over:other_s;
            copy_reduction = Metrics.copy_reduction_pct ~of_:vc_s ~over:other_s;
            balance_improvement =
              Metrics.balance_improvement_pct ~of_:vc_s ~over:other_s;
          })
        points)
    run.results

let figure6_of run =
  {
    vs_ob = scatter_against run ~other:"ob";
    vs_rhop = scatter_against run ~other:"rhop";
    vs_op = scatter_against run ~other:"op";
  }

let scatter_summary name points =
  let arr f = Array.of_list (List.map f points) in
  let frac_pos f =
    let n = List.length points in
    if n = 0 then 0.0
    else
      float_of_int (List.length (List.filter (fun p -> f p > 0.0) points))
      /. float_of_int n *. 100.0
  in
  Printf.printf
    "%-10s  speedup avg %+6.2f%%  copy-red avg %+6.2f%% (pos %4.0f%%)  balance avg %+7.2f%% (pos %4.0f%%)\n"
    name
    (Clusteer_util.Stats.mean (arr (fun p -> p.speedup)))
    (Clusteer_util.Stats.mean (arr (fun p -> p.copy_reduction)))
    (frac_pos (fun p -> p.copy_reduction))
    (Clusteer_util.Stats.mean (arr (fun p -> p.balance_improvement)))
    (frac_pos (fun p -> p.balance_improvement))

let print_scatter_summary fig =
  print_endline
    "Figure 6 summaries (per trace point; positive = VC better):";
  scatter_summary "VC vs OB" fig.vs_ob;
  scatter_summary "VC vs RHOP" fig.vs_rhop;
  scatter_summary "VC vs OP" fig.vs_op

let print_scatter_plots fig =
  let panel tag other points metric y_label =
    Printf.printf "\nFigure 6 (%s): VC vs %s\n" tag other;
    print_string
      (Clusteer_util.Plot.scatter ~x_label:"speedup %" ~y_label
         (List.map (fun p -> (p.speedup, metric p)) points))
  in
  panel "a.1" "OB" fig.vs_ob (fun p -> p.copy_reduction) "copy reduction %";
  panel "b.1" "OB" fig.vs_ob
    (fun p -> p.balance_improvement)
    "balance improvement %";
  panel "a.2" "RHOP" fig.vs_rhop (fun p -> p.copy_reduction) "copy reduction %";
  panel "b.2" "RHOP" fig.vs_rhop
    (fun p -> p.balance_improvement)
    "balance improvement %";
  panel "a.3" "OP" fig.vs_op (fun p -> p.copy_reduction) "copy reduction %";
  panel "b.3" "OP" fig.vs_op
    (fun p -> p.balance_improvement)
    "balance improvement %"

(* ---- §5.4 copy inflation ------------------------------------------ *)

let copy_inflation run =
  let names = config_names run in
  let vc_wide =
    match List.find_opt (fun n -> n = "vc4") names with
    | Some n -> n
    | None -> invalid_arg "Experiments.copy_inflation: needs a vc4 run"
  in
  let ratios =
    List.concat_map
      (fun (_, points) ->
        List.map
          (fun (r : Runner.point_result) ->
            let copies c =
              float_of_int (List.assoc c r.Runner.runs).Stats.copies_generated
            in
            let narrow = copies "vc2" in
            if narrow <= 0.0 then 1.0 else copies vc_wide /. narrow)
          points)
      run.results
  in
  (Clusteer_util.Stats.mean (Array.of_list ratios) -. 1.0) *. 100.0

(* ---- Tables -------------------------------------------------------- *)

let print_table1 () =
  print_endline "Table 1: steering-logic complexity comparison";
  let header =
    [|
      "configuration"; "dep check"; "balance"; "vote unit"; "copy gen";
      "serialized";
    |]
  in
  print_string (Table.render ~header (Clusteer_steer.Complexity.table_rows ()))

let print_table2 ~clusters =
  Printf.printf "Table 2: architectural parameters (%d clusters)\n" clusters;
  let header = [| "parameter"; "value" |] in
  let rows =
    List.map
      (fun (k, v) -> [| k; v |])
      (Config.describe (Config.default ~clusters))
  in
  print_string
    (Table.render ~align:[| Table.Left; Table.Left |] ~header rows)

let print_table3 () =
  print_endline "Table 3: evaluated configurations";
  let header = [| "configuration"; "description" |] in
  let configs =
    Clusteer.Configuration.table3 ~clusters:2
    @ [ Clusteer.Configuration.Vc { virtual_clusters = 4 } ]
  in
  let rows =
    List.map
      (fun c ->
        [|
          Clusteer.Configuration.name c; Clusteer.Configuration.description c;
        |])
      configs
  in
  print_string (Table.render ~align:[| Table.Left; Table.Left |] ~header rows)

(* ---- §2.1 worked example ------------------------------------------ *)

open Clusteer_isa

type sec21 = {
  sequential_copies : int;
  parallel_copies : int;
  sequential_placement : int list;
  parallel_placement : int list;
}

(* The example: I1: R1 <- R1 + R2; I2: R3 <- Load(R1); I3: R4 <-
   Load(R3). Before steering R1 is in cluster 0, R2 and R3 in cluster
   1; cluster 1 is empty, cluster 0 has work in flight. *)
let section21_example () =
  let i1 =
    Uop.make ~id:0 ~opcode:Opcode.Int_alu ~dst:(Reg.int 1)
      ~srcs:[| Reg.int 1; Reg.int 2 |] ()
  in
  let i2 =
    Uop.make ~id:1 ~opcode:Opcode.Load ~dst:(Reg.int 3) ~srcs:[| Reg.int 1 |]
      ~stream:0 ()
  in
  let i3 =
    Uop.make ~id:2 ~opcode:Opcode.Load ~dst:(Reg.int 4) ~srcs:[| Reg.int 3 |]
      ~stream:0 ()
  in
  let replay (policy : Policy.t) =
    (* Live location table, updated sequentially as the engine would. *)
    let loc = Hashtbl.create 8 in
    Hashtbl.replace loc (Reg.int 1) (Bitset.singleton 0);
    Hashtbl.replace loc (Reg.int 2) (Bitset.singleton 1);
    Hashtbl.replace loc (Reg.int 3) (Bitset.singleton 1);
    let location r =
      Option.value ~default:(Bitset.full 2) (Hashtbl.find_opt loc r)
    in
    let inflight = [| 5; 0 |] in
    let view =
      {
        Policy.clusters = 2;
        cycle = (fun () -> 0);
        inflight;
        queue_free = (fun _ _ -> 48);
        src_locations_into =
          (fun u buf ->
            let srcs = u.Uop.srcs in
            Array.iteri (fun i src -> buf.(i) <- location src) srcs;
            Array.length srcs);
        reg_location = location;
        annot = Annot.none ~uop_count:3;
      }
    in
    let copies = ref 0 in
    let placement =
      List.map
        (fun u ->
          match policy.Policy.decide view u with
          | Policy.Stall -> invalid_arg "section21: unexpected stall"
          | Policy.Dispatch_to c ->
              (* Engine copy rule: each source not located in [c]
                 generates a copy and becomes located there too. *)
              Array.iter
                (fun src ->
                  let l = location src in
                  if not (Bitset.mem l c) then begin
                    incr copies;
                    Hashtbl.replace loc src (Bitset.add l c)
                  end)
                u.Uop.srcs;
              Option.iter
                (fun dst -> Hashtbl.replace loc dst (Bitset.singleton c))
                u.Uop.dst;
              inflight.(c) <- inflight.(c) + 1;
              c)
        [ i1; i2; i3 ]
    in
    (!copies, placement)
  in
  let { Clusteer.Configuration.stall_threshold; imbalance_limit; _ } =
    Clusteer.Configuration.default_params
  in
  let sequential_copies, sequential_placement =
    replay (Clusteer_steer.Op.make ~stall_threshold ~imbalance_limit ())
  in
  let parallel_copies, parallel_placement =
    replay (Clusteer_steer.Op_parallel.make ~stall_threshold ~imbalance_limit)
  in
  { sequential_copies; parallel_copies; sequential_placement; parallel_placement }

let print_section21 r =
  Printf.printf
    "Section 2.1 example (I1: R1<-R1+R2; I2: R3<-[R1]; I3: R4<-[R3])\n\
     sequential steering: placement %s, %d copies\n\
     parallel steering:   placement %s, %d copies\n\
     extra copies of the parallel implementation: %d (paper: 2)\n"
    (String.concat "," (List.map string_of_int r.sequential_placement))
    r.sequential_copies
    (String.concat "," (List.map string_of_int r.parallel_placement))
    r.parallel_copies
    (r.parallel_copies - r.sequential_copies)

(* ---- CSV export ---------------------------------------------------- *)

let export_slowdowns ~path fig =
  let configs = List.map fst (List.nth fig.rows 0).slowdowns in
  let header = "benchmark" :: "suite" :: configs in
  let rows =
    List.map
      (fun r ->
        r.bench
        :: Profile.suite_name r.suite
        :: List.map
             (fun c -> Printf.sprintf "%.4f" (List.assoc c r.slowdowns))
             configs)
      fig.rows
  in
  Csv.write ~path ~header rows
