open Clusteer_isa

type region_slack = { region : Region.t; crit : Critical.t }

let analyze ~program ~likely ~region_uops =
  Region.build ~program ~likely ~max_uops:region_uops
  |> List.map (fun region ->
         { region; crit = Critical.analyze (Ddg.of_region region) })

let iter rs f =
  Array.iteri
    (fun node u -> f ~node ~uop:u ~slack:rs.crit.Critical.slack.(node))
    rs.region.Region.uops

let hints ~program ~likely ~region_uops ~slack_threshold =
  let critical = Array.make program.Program.uop_count false in
  List.iter
    (fun rs ->
      iter rs (fun ~node:_ ~uop ~slack ->
          if slack <= slack_threshold then critical.(uop.Uop.id) <- true))
    (analyze ~program ~likely ~region_uops);
  critical
