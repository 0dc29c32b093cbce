open Clusteer_isa
open Clusteer_uarch
module Bitset = Clusteer_util.Bitset

(* Per-cycle memory of registers redefined by micro-ops already steered
   this cycle: maps the register to the location mask its *previous*
   value had when the bundle started. Reading through this table is
   what "non-updated information" means in §2.1.

   The table is a pair of dense arrays indexed by register code, with a
   cycle stamp per entry: an entry is live only when its stamp equals
   the current cycle, so the per-bundle "reset" is free and the decide
   path never touches a hashtable (or allocates). *)

(* Same register budget as the engine's rename table. *)
let max_nregs_per_class = 64

type bundle_state = {
  stale_mask : Bitset.t array;  (* indexed by register code *)
  stale_stamp : int array;  (* cycle the entry was written; -1 = never *)
}

let reg_code r = Reg.encode ~nregs_per_class:max_nregs_per_class r

let make ?(stall_threshold = 36) ?(imbalance_limit = 200) () =
  let state =
    {
      stale_mask = Array.make (2 * max_nregs_per_class) Bitset.empty;
      stale_stamp = Array.make (2 * max_nregs_per_class) (-1);
    }
  in
  (* Decision-path scratch: see [Op.make] — the per-uop path must not
     allocate. *)
  let votes = Array.make Policy.max_clusters 0 in
  let src_buf = ref (Array.make 2 Bitset.empty) in
  let best_votes = ref 0 in
  let preferred = ref 0 in
  let min_load = ref 0 in
  let best_alt = ref 0 in
  let decide view u =
    let queue = Opcode.queue u.Uop.opcode in
    let clusters = view.Policy.clusters in
    let cycle = view.Policy.cycle () in
    let srcs = u.Uop.srcs in
    let nsrcs = Array.length srcs in
    if Array.length !src_buf < nsrcs then
      src_buf := Array.make nsrcs Bitset.empty;
    (* The vote, reading redefined sources through the stale table. *)
    let n = view.Policy.src_locations_into u !src_buf in
    for c = 0 to clusters - 1 do
      votes.(c) <- 0
    done;
    for i = 0 to n - 1 do
      let code = reg_code srcs.(i) in
      let loc =
        if state.stale_stamp.(code) = cycle then state.stale_mask.(code)
        else (!src_buf).(i)
      in
      for c = 0 to clusters - 1 do
        if Bitset.mem loc c then votes.(c) <- votes.(c) + 1
      done
    done;
    best_votes := 0;
    for c = 0 to clusters - 1 do
      if votes.(c) > !best_votes then best_votes := votes.(c)
    done;
    (* Least-loaded candidate; ties go to the lowest cluster index,
       exactly as the list-based formulation did. *)
    preferred := -1;
    for c = 0 to clusters - 1 do
      if
        votes.(c) = !best_votes
        && (!preferred = -1
           || view.Policy.inflight c < view.Policy.inflight !preferred)
      then preferred := c
    done;
    min_load := max_int;
    for c = 0 to clusters - 1 do
      let l = view.Policy.inflight c in
      if l < !min_load then min_load := l
    done;
    if view.Policy.inflight !preferred - !min_load > imbalance_limit then begin
      preferred := -1;
      for c = 0 to clusters - 1 do
        if
          !preferred = -1
          || view.Policy.inflight c < view.Policy.inflight !preferred
        then preferred := c
      done
    end;
    let decision =
      if view.Policy.queue_free !preferred queue > 0 then
        Policy.dispatch_to !preferred
      else begin
        best_alt := -1;
        for c = 0 to clusters - 1 do
          if
            c <> !preferred
            && view.Policy.queue_free c queue >= stall_threshold
            && (!best_alt = -1
               || view.Policy.inflight c < view.Policy.inflight !best_alt)
          then best_alt := c
        done;
        if !best_alt = -1 then Policy.Stall else Policy.dispatch_to !best_alt
      end
    in
    (match decision with
    | Policy.Dispatch_to _ -> (
        (* Record the overwritten value's pre-bundle location so later
           micro-ops of this bundle keep seeing the stale mapping. *)
        match u.Uop.dst with
        | Some dst ->
            let code = reg_code dst in
            if state.stale_stamp.(code) <> cycle then begin
              state.stale_stamp.(code) <- cycle;
              state.stale_mask.(code) <- view.Policy.reg_location dst
            end
        | None -> ())
    | Policy.Stall -> ());
    decision
  in
  (* A repeated consult lands on a later cycle than the one it repeats,
     and a stale entry is read only on the cycle that wrote it: the
     consults a jump skips would read no entry and change none that a
     later cycle reads, so they need no charge. *)
  {
    Policy.name = "op-parallel";
    decide;
    repeat = Some (fun _view _uop _k -> true);
    uses_vote_unit = true;
  }
