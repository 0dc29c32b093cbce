module Csv = Clusteer_util.Csv

let write_slowdown_figure ~dir ~name (fig : Experiments.slowdown_figure) =
  Clusteer_util.Fs.mkdir_p dir;
  let csv_path = Filename.concat dir (name ^ ".csv") in
  Experiments.export_slowdowns ~path:csv_path fig;
  let configs =
    match fig.Experiments.rows with
    | row :: _ -> List.map fst row.Experiments.slowdowns
    | [] -> []
  in
  let gp_path = Filename.concat dir (name ^ ".gp") in
  Clusteer_util.Fs.write_atomic ~path:gp_path (fun oc ->
      Printf.fprintf oc
        "# Regenerates the %s bar chart from %s.csv\n\
         set terminal pngcairo size 1400,500\n\
         set output '%s.png'\n\
         set datafile separator ','\n\
         set style data histograms\n\
         set style histogram clustered gap 1\n\
         set style fill solid 0.8 border -1\n\
         set ylabel 'slowdown vs OP (%%)'\n\
         set xtics rotate by -45 scale 0\n\
         set key top left\n\
         set grid ytics\n"
        name name name;
      let columns =
        List.mapi
          (fun i config ->
            Printf.sprintf "'%s.csv' using %d:xtic(1) title '%s'" name (i + 3)
              config)
          configs
      in
      Printf.fprintf oc "plot %s\n" (String.concat ", \\\n     " columns));
  [ csv_path; gp_path ]

let write_scatter_figure ~dir (fig : Experiments.scatter_figure) =
  Clusteer_util.Fs.mkdir_p dir;
  let dump suffix points =
    let path = Filename.concat dir ("fig6_vs_" ^ suffix ^ ".csv") in
    Csv.write ~path
      ~header:
        [ "trace"; "speedup_pct"; "copy_reduction_pct"; "balance_improvement_pct" ]
      (List.map
         (fun (p : Experiments.scatter_point) ->
           [
             p.Experiments.trace;
             Printf.sprintf "%.4f" p.Experiments.speedup;
             Printf.sprintf "%.4f" p.Experiments.copy_reduction;
             Printf.sprintf "%.4f" p.Experiments.balance_improvement;
           ])
         points);
    path
  in
  let p1 = dump "ob" fig.Experiments.vs_ob in
  let p2 = dump "rhop" fig.Experiments.vs_rhop in
  let p3 = dump "op" fig.Experiments.vs_op in
  let gp_path = Filename.concat dir "fig6.gp" in
  Clusteer_util.Fs.write_atomic ~path:gp_path (fun oc ->
      Printf.fprintf oc
        "# Regenerates the six Figure 6 scatter panels\n\
         set terminal pngcairo size 1500,900\n\
         set output 'fig6.png'\n\
         set datafile separator ','\n\
         set multiplot layout 2,3\n\
         set grid\n\
         set xzeroaxis\n\
         set yzeroaxis\n\
         set xlabel 'speedup (%%)'\n";
      List.iter
        (fun (title, file, col, ylab) ->
          Printf.fprintf oc
            "set title '%s'\nset ylabel '%s'\nplot '%s' using 2:%d notitle \
             pt 7 ps 0.6\n"
            title ylab file col)
        [
          ("a.1 VC vs OB", "fig6_vs_ob.csv", 3, "copy reduction (%)");
          ("a.2 VC vs RHOP", "fig6_vs_rhop.csv", 3, "copy reduction (%)");
          ("a.3 VC vs OP", "fig6_vs_op.csv", 3, "copy reduction (%)");
          ("b.1 VC vs OB", "fig6_vs_ob.csv", 4, "balance improvement (%)");
          ("b.2 VC vs RHOP", "fig6_vs_rhop.csv", 4, "balance improvement (%)");
          ("b.3 VC vs OP", "fig6_vs_op.csv", 4, "balance improvement (%)");
        ];
      Printf.fprintf oc "unset multiplot\n");
  [ p1; p2; p3; gp_path ]
