(** Plot-ready artifact emission: CSV data plus gnuplot scripts that
    recreate the paper's figures from a sweep's results. Run
    [gnuplot <name>.gp] in the output directory to get PNGs. *)

val write_slowdown_figure :
  dir:string -> name:string -> Experiments.slowdown_figure -> string list
(** Write [<name>.csv] and [<name>.gp] (clustered bar chart of
    slowdowns vs OP, one group per benchmark plus the averages).
    Returns the paths written. *)

val write_scatter_figure :
  dir:string -> Experiments.scatter_figure -> string list
(** Write the six Figure-6 panels: [fig6_vs_{ob,rhop,op}.csv] and a
    single [fig6.gp] producing the 2x3 panel grid. Returns the paths
    written. *)
