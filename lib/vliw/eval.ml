open Clusteer_ddg

type mode = Unified | Fixed of (Ddg.t -> int array)

type summary = {
  regions : int;
  ops : int;
  cycles : int;
  moves : int;
  static_ipc : float;
}

let run machine ~program ~likely ~region_uops mode =
  let regions = Region.build ~program ~likely ~max_uops:region_uops in
  let totals =
    List.fold_left
      (fun (nregions, ops, cycles, moves) region ->
        let g = Ddg.of_region region in
        if Ddg.node_count g = 0 then (nregions, ops, cycles, moves)
        else begin
          let schedule =
            match mode with
            | Unified -> List_sched.unified machine g
            | Fixed assign ->
                List_sched.with_assignment machine g ~assignment:(assign g)
          in
          Schedule.validate schedule g machine;
          ( nregions + 1,
            ops + Ddg.node_count g,
            cycles + schedule.Schedule.length,
            moves + schedule.Schedule.moves )
        end)
      (0, 0, 0, 0) regions
  in
  let nregions, ops, cycles, moves = totals in
  {
    regions = nregions;
    ops;
    cycles;
    moves;
    static_ipc =
      (if cycles = 0 then 0.0 else float_of_int ops /. float_of_int cycles);
  }
