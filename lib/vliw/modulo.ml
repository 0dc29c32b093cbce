open Clusteer_isa
module Ddg = Clusteer_ddg.Ddg
module Critical = Clusteer_ddg.Critical

type edge = { src : int; dst : int; latency : int; distance : int }

type loop_ddg = { uops : Uop.t array; edges : edge list }

let loop_ddg_of_body uops =
  let n = Array.length uops in
  let acyclic = Ddg.build uops in
  let intra = ref [] in
  Ddg.iter_edges acyclic (fun src dst ->
      let latency = acyclic.Ddg.latency.(src) in
      intra := { src; dst; latency; distance = 0 } :: !intra);
  let intra = List.rev !intra in
  (* Loop-carried register dependences: a use with no earlier
     definition in the body reads the previous iteration's (last)
     definition. *)
  let last_def = Hashtbl.create 16 in
  Array.iteri
    (fun i (u : Uop.t) ->
      match u.Uop.dst with
      | Some d -> Hashtbl.replace last_def d i
      | None -> ())
    uops;
  let has_earlier_def reg pos =
    let found = ref false in
    for j = 0 to pos - 1 do
      match uops.(j).Uop.dst with
      | Some d when Reg.equal d reg -> found := true
      | _ -> ()
    done;
    !found
  in
  let carried = ref [] in
  Array.iteri
    (fun i (u : Uop.t) ->
      Array.iter
        (fun src ->
          if not (has_earlier_def src i) then
            match Hashtbl.find_opt last_def src with
            | Some j ->
                carried :=
                  {
                    src = j;
                    dst = i;
                    latency = Ddg.static_latency uops.(j);
                    distance = 1;
                  }
                  :: !carried
            | None -> ())
        u.Uop.srcs)
    uops;
  (* Loop-carried memory dependence: the last store of a stream feeds
     next-iteration loads of the same stream that precede it. *)
  let last_store = Hashtbl.create 4 in
  Array.iteri
    (fun i (u : Uop.t) ->
      match u.Uop.opcode with
      | Opcode.Store -> Hashtbl.replace last_store u.Uop.stream i
      | _ -> ())
    uops;
  Array.iteri
    (fun i (u : Uop.t) ->
      match u.Uop.opcode with
      | Opcode.Load -> (
          match Hashtbl.find_opt last_store u.Uop.stream with
          | Some j when j >= i ->
              carried :=
                {
                  src = j;
                  dst = i;
                  latency = Ddg.static_latency uops.(j);
                  distance = 1;
                }
                :: !carried
          | Some _ | None -> ())
      | _ -> ())
    uops;
  ignore n;
  { uops; edges = intra @ List.rev !carried }

(* ---- lower bounds -------------------------------------------------- *)

let class_index = function
  | Machine.Slot_int -> 0
  | Machine.Slot_fp -> 1
  | Machine.Slot_mem -> 2
  | Machine.Slot_move -> 3

let cross_moves g ~assignment =
  (* Distinct (producer, destination cluster) pairs needing a move,
     attributed to the producer's cluster. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let a = assignment.(e.src) and b = assignment.(e.dst) in
      if a <> b then Hashtbl.replace seen (e.src, b) a)
    g.edges;
  Hashtbl.fold (fun _ a acc -> a :: acc) seen []

let res_mii machine g ~assignment =
  let counts = Array.make_matrix machine.Machine.clusters 4 0 in
  Array.iteri
    (fun i (u : Uop.t) ->
      let c = assignment.(i) in
      let k = class_index (Machine.slot_class_of u.Uop.opcode) in
      counts.(c).(k) <- counts.(c).(k) + 1)
    g.uops;
  List.iter
    (fun producer_cluster ->
      counts.(producer_cluster).(class_index Machine.Slot_move) <-
        counts.(producer_cluster).(class_index Machine.Slot_move) + 1)
    (cross_moves g ~assignment);
  let mii = ref 1 in
  Array.iteri
    (fun _c per_class ->
      Array.iteri
        (fun k count ->
          let cap =
            Machine.slots machine
              (match k with
              | 0 -> Machine.Slot_int
              | 1 -> Machine.Slot_fp
              | 2 -> Machine.Slot_mem
              | _ -> Machine.Slot_move)
          in
          if count > 0 then mii := max !mii ((count + cap - 1) / cap))
        per_class)
    counts;
  !mii

let rec_mii g =
  let n = Array.length g.uops in
  if n = 0 then 1
  else begin
    (* Feasible at II iff the graph with weights (latency - II*distance)
       has no positive cycle: longest-path Bellman-Ford stabilises. *)
    let feasible ii =
      let dist = Array.make n 0 in
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds <= n do
        changed := false;
        incr rounds;
        List.iter
          (fun e ->
            let w = e.latency - (ii * e.distance) in
            if dist.(e.src) + w > dist.(e.dst) then begin
              dist.(e.dst) <- dist.(e.src) + w;
              changed := true
            end)
          g.edges
      done;
      not !changed
    in
    let hi =
      List.fold_left (fun acc e -> acc + e.latency) 1 g.edges
    in
    let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if feasible mid then search lo mid else search (mid + 1) hi
    in
    search 1 hi
  end

(* ---- iterative modulo scheduling ------------------------------------ *)

type result = { ii : int; mii : int; times : int array; moves : int }

let comm_latency machine ~assignment e =
  if assignment.(e.src) = assignment.(e.dst) then 0
  else machine.Machine.comm_latency

let schedule machine g ~assignment ?max_ii () =
  let n = Array.length g.uops in
  if Array.length assignment <> n then
    invalid_arg "Vliw.Modulo.schedule: assignment arity";
  Array.iter
    (fun c ->
      if c < 0 || c >= machine.Machine.clusters then
        invalid_arg "Vliw.Modulo.schedule: cluster out of range")
    assignment;
  let moves = List.length (cross_moves g ~assignment) in
  if n = 0 then { ii = 1; mii = 1; times = [||]; moves = 0 }
  else begin
    let mii = max (res_mii machine g ~assignment) (rec_mii g) in
    let max_ii =
      match max_ii with Some m -> m | None -> (4 * mii) + 16
    in
    (* Height priority from the distance-0 subgraph. *)
    let acyclic = Ddg.build g.uops in
    let crit = Critical.analyze acyclic in
    let preds = Array.make n [] in
    List.iter (fun e -> preds.(e.dst) <- e :: preds.(e.dst)) g.edges;
    let try_ii ii =
      let times = Array.make n (-1) in
      let mrt = Array.init machine.Machine.clusters (fun _ -> Array.make_matrix 4 ii 0) in
      let budget = ref (n * 20) in
      let capacity cls =
        Machine.slots machine
          (match cls with
          | 0 -> Machine.Slot_int
          | 1 -> Machine.Slot_fp
          | 2 -> Machine.Slot_mem
          | _ -> Machine.Slot_move)
      in
      let slot_of op = class_index (Machine.slot_class_of g.uops.(op).Uop.opcode) in
      let unschedule op =
        let c = assignment.(op) and k = slot_of op in
        mrt.(c).(k).(times.(op) mod ii) <- mrt.(c).(k).(times.(op) mod ii) - 1;
        times.(op) <- -1
      in
      let book op t =
        let c = assignment.(op) and k = slot_of op in
        mrt.(c).(k).(t mod ii) <- mrt.(c).(k).(t mod ii) + 1;
        times.(op) <- t
      in
      let estart op =
        List.fold_left
          (fun acc e ->
            if times.(e.src) >= 0 then
              max acc
                (times.(e.src) + e.latency
                + comm_latency machine ~assignment e
                - (ii * e.distance))
            else acc)
          0 preds.(op)
      in
      let next_unscheduled () =
        let best = ref (-1) in
        for op = n - 1 downto 0 do
          if times.(op) < 0 then
            if
              !best = -1
              || crit.Critical.height.(op) > crit.Critical.height.(!best)
            then best := op
        done;
        !best
      in
      let ok = ref true in
      let rec loop () =
        let op = next_unscheduled () in
        if op >= 0 then begin
          decr budget;
          if !budget < 0 then ok := false
          else begin
            let lo = estart op in
            let c = assignment.(op) and k = slot_of op in
            let found = ref (-1) in
            for t = lo to lo + ii - 1 do
              if !found < 0 && mrt.(c).(k).(t mod ii) < capacity k then
                found := t
            done;
            let t =
              if !found >= 0 then !found
              else begin
                (* Forced placement: evict the occupants of the slot. *)
                for other = 0 to n - 1 do
                  if
                    other <> op && times.(other) >= 0
                    && assignment.(other) = c
                    && slot_of other = k
                    && times.(other) mod ii = lo mod ii
                  then unschedule other
                done;
                lo
              end
            in
            book op t;
            (* Evict scheduled dependents whose constraint now breaks. *)
            List.iter
              (fun e ->
                if
                  e.src = op && times.(e.dst) >= 0
                  && times.(e.dst)
                     < t + e.latency
                       + comm_latency machine ~assignment e
                       - (ii * e.distance)
                then unschedule e.dst)
              g.edges;
            loop ()
          end
        end
      in
      loop ();
      if !ok then Some times else None
    in
    let rec find ii =
      if ii > max_ii then
        failwith
          (Printf.sprintf "Vliw.Modulo.schedule: no schedule up to II=%d" max_ii)
      else
        match try_ii ii with
        | Some times -> { ii; mii; times; moves }
        | None -> find (ii + 1)
    in
    find mii
  end

let validate machine g ~assignment r =
  let n = Array.length g.uops in
  if Array.length r.times <> n then
    invalid_arg "Vliw.Modulo.validate: arity mismatch";
  Array.iter
    (fun t -> if t < 0 then invalid_arg "Vliw.Modulo.validate: unscheduled op")
    r.times;
  (* Modulo-aware dependences. *)
  List.iter
    (fun e ->
      let comm = comm_latency machine ~assignment e in
      if r.times.(e.dst) < r.times.(e.src) + e.latency + comm - (r.ii * e.distance)
      then
        invalid_arg
          (Printf.sprintf
             "Vliw.Modulo.validate: edge %d->%d violated at II=%d" e.src e.dst
             r.ii))
    g.edges;
  (* Modulo reservation table feasibility (ops only; moves by
     aggregate capacity). *)
  let mrt = Array.init machine.Machine.clusters (fun _ -> Array.make_matrix 4 r.ii 0) in
  Array.iteri
    (fun op t ->
      let c = assignment.(op) in
      let k = class_index (Machine.slot_class_of g.uops.(op).Uop.opcode) in
      mrt.(c).(k).(t mod r.ii) <- mrt.(c).(k).(t mod r.ii) + 1)
    r.times;
  Array.iteri
    (fun _c per_class ->
      Array.iteri
        (fun k row ->
          let cap =
            Machine.slots machine
              (match k with
              | 0 -> Machine.Slot_int
              | 1 -> Machine.Slot_fp
              | 2 -> Machine.Slot_mem
              | _ -> Machine.Slot_move)
          in
          Array.iter
            (fun used ->
              if used > cap then
                invalid_arg "Vliw.Modulo.validate: reservation overflow")
            row)
        per_class)
    mrt;
  (* Move capacity: per producer cluster, moves/iteration must fit the
     move slots over one II. *)
  let per_cluster = Array.make machine.Machine.clusters 0 in
  List.iter
    (fun c -> per_cluster.(c) <- per_cluster.(c) + 1)
    (cross_moves g ~assignment);
  Array.iter
    (fun m ->
      if m > machine.Machine.move_slots * r.ii then
        invalid_arg "Vliw.Modulo.validate: move capacity exceeded")
    per_cluster
