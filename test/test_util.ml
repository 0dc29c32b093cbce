(* Unit and property tests for clusteer_util. *)

open Clusteer_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr equal
  done;
  check_bool "different seeds diverge" true (!equal < 4)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 3 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli r 0.0);
    check_bool "p=1 always" true (Rng.bernoulli r 1.0)
  done

let test_rng_bernoulli_rate () =
  let r = Rng.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "close to 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_geometric_mean () =
  let r = Rng.create 9 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Rng.geometric r 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of geometric(0.5) counting failures = 1.0 *)
  check_bool "geometric mean near 1" true (mean > 0.9 && mean < 1.1)

let test_rng_pick () =
  let r = Rng.create 13 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Rng.pick r a) a)
  done

let test_rng_pick_weighted () =
  let r = Rng.create 17 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.pick_weighted r [| ("a", 1.0); ("b", 0.0); ("c", 3.0) |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  check_int "zero weight never drawn" 0
    (Option.value ~default:0 (Hashtbl.find_opt counts "b"));
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let c = Option.value ~default:0 (Hashtbl.find_opt counts "c") in
  check_bool "c ~ 3x a" true (c > 2 * a)

let test_rng_shuffle_permutation () =
  let r = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 31 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 parent = Rng.int64 child then incr equal
  done;
  check_bool "split streams diverge" true (!equal < 4)

let test_rng_gaussian_moments () =
  let r = Rng.create 37 in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.gaussian r ~mean:5.0 ~stddev:2.0)
  done;
  check_bool "mean near 5" true (abs_float (Stats.Online.mean acc -. 5.0) < 0.1);
  check_bool "stddev near 2" true (abs_float (Stats.Online.stddev acc -. 2.0) < 0.1)

(* ---- Stats --------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check_int "count" 4 s.Stats.count;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_bool "stddev" true (abs_float (s.Stats.stddev -. 1.2909944487) < 1e-6)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_weighted_mean () =
  check_float "weighted" 3.0
    (Stats.weighted_mean [| (1.0, 1.0); (4.0, 2.0) |])

let test_stats_weighted_mean_zero_weight () =
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Stats.weighted_mean: zero total weight") (fun () ->
      ignore (Stats.weighted_mean [| (1.0, 0.0) |]))

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Stats.percentile xs 50.0)

let test_stats_ratio_percent () =
  check_float "ratio" 25.0 (Stats.ratio_percent 100.0 125.0);
  check_float "negative" (-10.0) (Stats.ratio_percent 100.0 90.0)

let test_stats_online_matches_batch () =
  let xs = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let acc = Stats.Online.create () in
  Array.iter (Stats.Online.add acc) xs;
  let s = Stats.summarize xs in
  check_bool "mean matches" true
    (abs_float (Stats.Online.mean acc -. s.Stats.mean) < 1e-9);
  check_bool "stddev matches" true
    (abs_float (Stats.Online.stddev acc -. s.Stats.stddev) < 1e-9)

let test_stats_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 150.0))

let test_rng_geometric_certain () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    check_int "p=1 never fails" 0 (Rng.geometric r 1.0)
  done

(* ---- Pqueue -------------------------------------------------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (Pqueue.add q) [ 3; 1; 2 ];
  check_int "min" 1 (Pqueue.pop_min q);
  check_int "next" 2 (Pqueue.pop_min q);
  check_int "last" 3 (Pqueue.pop_min q);
  check_bool "empty" true (Pqueue.is_empty q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q 1;
  Pqueue.clear q;
  check_bool "empty" true (Pqueue.is_empty q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (Pqueue.add q) prios;
      let out = List.map (fun _ -> Pqueue.pop_min q) prios in
      out = List.sort compare prios && Pqueue.is_empty q)

(* Interleaved adds ([Some v], from a small range so duplicates are
   common) and pops ([None]) against a sorted-list model. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue pop_min matches a list model"
    ~count:300
    QCheck.(list (option (int_bound 5)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] (* sorted *) in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Pqueue.add q v;
              model := List.merge compare [ v ] !model;
              Pqueue.length q = List.length !model
          | None -> (
              match !model with
              | [] -> Pqueue.is_empty q
              | m :: rest ->
                  model := rest;
                  Pqueue.pop_min q = m))
        ops)

let test_pqueue_empty_raises () =
  let q = Pqueue.create () in
  Alcotest.check_raises "pop_min"
    (Invalid_argument "Pqueue.pop_min: empty queue") (fun () ->
      ignore (Pqueue.pop_min q))

(* ---- Wheel --------------------------------------------------------- *)

(* Every entry due at or before [now], in the order the wheel fires
   them. *)
let drain w now =
  let rec go acc =
    match Wheel.pop_due w now with -1 -> List.rev acc | v -> go (v :: acc)
  in
  go []

(* Entries due the same cycle fire in insertion order, before any due
   later: the (due, insertion) order of a heap with a FIFO tiebreak. *)
let test_wheel_same_cycle_fifo () =
  let w = Wheel.create () in
  List.iter (fun (due, v) -> Wheel.add w ~due v)
    [ (5, 10); (3, 20); (5, 11); (3, 21); (5, 12) ];
  Alcotest.(check (list int)) "nothing due yet" [] (drain w 2);
  Alcotest.(check (list int)) "due order, fifo ties" [ 20; 21; 10; 11; 12 ]
    (drain w 5);
  check_bool "empty" true (Wheel.is_empty w)

let test_wheel_next_due () =
  let w = Wheel.create () in
  check_int "empty" max_int (Wheel.next_due w);
  Wheel.add w ~due:7 1;
  Wheel.add w ~due:4 2;
  check_int "earliest" 4 (Wheel.next_due w);
  Alcotest.(check (list int)) "fires 4" [ 2 ] (drain w 6);
  check_int "after firing" 7 (Wheel.next_due w)

(* An entry far beyond the horizon grows the wheel instead of wrapping
   onto an earlier cycle; pending entries keep their order. *)
let test_wheel_grows_past_horizon () =
  let w = Wheel.create () in
  Wheel.add w ~due:3 1;
  Wheel.add w ~due:3 2;
  Wheel.add w ~due:5003 3;
  Wheel.add w ~due:1003 4;
  Wheel.add w ~due:3 5;
  Alcotest.(check (list int)) "not wrapped" [ 1; 2; 5 ] (drain w 1002);
  check_int "next" 1003 (Wheel.next_due w);
  Alcotest.(check (list int)) "rest in due order" [ 4; 3 ] (drain w 5003)

let test_wheel_rejects_passed_cycle () =
  let w = Wheel.create () in
  Alcotest.(check (list int)) "advance" [] (drain w 10);
  Alcotest.check_raises "passed"
    (Invalid_argument "Wheel.add: due cycle 9 is before the wheel's base 10")
    (fun () -> Wheel.add w ~due:9 0);
  (* Due now is still accepted, and fires at the next pop. *)
  Wheel.add w ~due:10 7;
  Alcotest.(check (list int)) "due now" [ 7 ] (drain w 10)

let test_wheel_clear () =
  let w = Wheel.create () in
  Wheel.add w ~due:2 1;
  ignore (drain w 1);
  Wheel.clear w;
  check_bool "empty" true (Wheel.is_empty w);
  Wheel.add w ~due:0 5;
  Alcotest.(check (list int)) "base back at 0" [ 5 ] (drain w 0)

(* Random runs against a list model sorted by (due, insertion). Each
   op is (kind, x): kinds 0-4 add [x mod 21] cycles ahead, kind 5 adds
   [x] ahead (often past the 64 buckets, so the wheel grows), kinds
   6-8 advance the clock [x mod 31] cycles and fire everything due, and
   kind 9 adds a cycle already passed, which must be refused. *)
let prop_wheel_model =
  QCheck.Test.make ~name:"wheel fires in (due, insertion) order" ~count:300
    QCheck.(list (pair (int_bound 9) (int_bound 3000)))
    (fun ops ->
      let w = Wheel.create () in
      let model = ref [] (* (due, value), sorted by due, stable *) in
      let now = ref 0 and next = ref 0 in
      let add due =
        Wheel.add w ~due !next;
        model :=
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (!model @ [ (due, !next) ]);
        incr next
      in
      List.for_all
        (fun (kind, x) ->
          let ok =
            if kind <= 4 then (add (!now + (x mod 21)); true)
            else if kind = 5 then (add (!now + x); true)
            else if kind <= 8 then begin
              now := !now + (x mod 31);
              let due, rest = List.partition (fun (d, _) -> d <= !now) !model in
              model := rest;
              drain w !now = List.map snd due
            end
            else if !now = 0 then true
            else
              match Wheel.add w ~due:(!now - 1 - (x mod 5)) 0 with
              | () -> false
              | exception Invalid_argument _ -> true
          in
          ok
          && Wheel.length w = List.length !model
          && Wheel.next_due w
             = (match !model with [] -> max_int | (d, _) :: _ -> d))
        ops)

(* ---- Ring ---------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  check_bool "push1" true (Ring.push r 1);
  check_bool "push2" true (Ring.push r 2);
  check_bool "push3" true (Ring.push r 3);
  check_bool "full rejects" false (Ring.push r 4);
  Alcotest.(check (option int)) "pop order" (Some 1) (Ring.pop r);
  check_bool "push after pop" true (Ring.push r 4);
  Alcotest.(check (list int)) "contents" [ 2; 3; 4 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:2 in
  for i = 1 to 10 do
    check_bool "push" true (Ring.push r i);
    Alcotest.(check (option int)) "pop" (Some i) (Ring.pop r)
  done

let test_ring_get () =
  let r = Ring.create ~capacity:4 in
  List.iter (fun v -> ignore (Ring.push r v)) [ 10; 20; 30 ];
  check_int "get 0" 10 (Ring.get r 0);
  check_int "get 2" 30 (Ring.get r 2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Ring.get: index out of range") (fun () ->
      ignore (Ring.get r 3))

let test_ring_free_slots () =
  let r = Ring.create ~capacity:5 in
  ignore (Ring.push r 1);
  ignore (Ring.push r 2);
  check_int "free" 3 (Ring.free_slots r);
  Ring.clear r;
  check_int "after clear" 5 (Ring.free_slots r)

let prop_ring_model =
  QCheck.Test.make ~name:"ring behaves like a bounded FIFO" ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some v = push v, None = pop; compare against a list model. *)
      let r = Ring.create ~capacity:4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let accepted = Ring.push r v in
              let should = List.length !model < 4 in
              if should then model := !model @ [ v ];
              accepted = should
          | None -> (
              match (Ring.pop r, !model) with
              | None, [] -> true
              | Some x, y :: rest ->
                  model := rest;
                  x = y
              | _ -> false))
        ops)

(* Ops on a capacity-3 ring, so the head wraps often: 0..99 pushes the
   value, 100 reads [front] and [drop]s it, 101 clears. Checked against
   a list model after every op. *)
let prop_ring_front_drop_model =
  QCheck.Test.make ~name:"ring front/drop/clear match a list model" ~count:300
    QCheck.(list (int_bound 101))
    (fun ops ->
      let r = Ring.create ~capacity:3 in
      let model = ref [] in
      List.for_all
        (fun op ->
          let step_ok =
            if op < 100 then begin
              let should = List.length !model < 3 in
              if should then model := !model @ [ op ];
              Ring.push r op = should
            end
            else if op = 100 then
              match !model with
              | [] -> Ring.is_empty r
              | x :: rest ->
                  let front = Ring.front r in
                  Ring.drop r;
                  model := rest;
                  front = x
            else begin
              Ring.clear r;
              model := [];
              true
            end
          in
          step_ok && Ring.to_list r = !model && Ring.length r = List.length !model)
        ops)

let test_ring_empty_raises () =
  let r : int Ring.t = Ring.create ~capacity:2 in
  Alcotest.check_raises "front" (Invalid_argument "Ring.front: empty ring")
    (fun () -> ignore (Ring.front r));
  Alcotest.check_raises "drop" (Invalid_argument "Ring.drop: empty ring")
    (fun () -> Ring.drop r)

(* Once grown to its working size, the hot-path API of both queues
   allocates nothing: the engine's per-cycle loop is built on it. *)
let test_queues_steady_state_allocate_nothing () =
  let q = Pqueue.create () in
  for i = 0 to 63 do
    Pqueue.add q (i * 7 mod 13)
  done;
  (* Grow to the working size (64 entries + 1) before measuring. *)
  Pqueue.add q 0;
  ignore (Pqueue.pop_min q);
  let w = Wheel.create () in
  for i = 0 to 63 do
    Wheel.add w ~due:(i mod 17) i
  done;
  ignore (Wheel.pop_due w 0);
  let r = Ring.create ~capacity:8 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Pqueue.add q (i mod 17);
    sum := !sum + Pqueue.pop_min q;
    Wheel.add w ~due:(i + (i mod 16)) i;
    sum := !sum + Wheel.next_due w;
    let ev = ref (Wheel.pop_due w i) in
    while !ev >= 0 do
      sum := !sum + !ev;
      ev := Wheel.pop_due w i
    done;
    ignore (Ring.push r i);
    sum := !sum + Ring.front r;
    Ring.drop r
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  check_bool "did work" true (!sum > 0)

(* ---- Bitset -------------------------------------------------------- *)

let test_bitset_basics () =
  let s = Bitset.of_list [ 0; 3; 5 ] in
  check_bool "mem 3" true (Bitset.mem s 3);
  check_bool "mem 1" false (Bitset.mem s 1);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 3; 5 ] (Bitset.to_list s)

let test_bitset_ops () =
  let a = Bitset.of_list [ 0; 1 ] and b = Bitset.of_list [ 1; 2 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ]
    (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "remove" [ 0 ]
    (Bitset.to_list (Bitset.remove a 1))

let test_bitset_full () =
  check_int "full 4" 4 (Bitset.cardinal (Bitset.full 4));
  check_bool "full empty" true (Bitset.is_empty (Bitset.full 0))

let test_bitset_choose () =
  Alcotest.(check (option int)) "choose min" (Some 2)
    (Bitset.choose (Bitset.of_list [ 5; 2; 9 ]));
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose Bitset.empty)

let prop_bitset_set_semantics =
  QCheck.Test.make ~name:"bitset matches sorted-dedup list" ~count:300
    QCheck.(list (int_bound 30))
    (fun l ->
      let s = Bitset.of_list l in
      Bitset.to_list s = List.sort_uniq compare l)

(* ---- Vec ------------------------------------------------------------ *)

let test_vec_growth () =
  let v = Vec.create ~initial:2 ~default:(-1) () in
  Vec.set v 100 7;
  check_int "set far" 7 (Vec.get v 100);
  check_int "default below" (-1) (Vec.get v 50);
  check_int "length" 101 (Vec.length v)

let test_vec_push () =
  let v = Vec.create ~default:0 () in
  check_int "push idx 0" 0 (Vec.push v 10);
  check_int "push idx 1" 1 (Vec.push v 20);
  check_int "value" 20 (Vec.get v 1)

let test_vec_get_beyond () =
  let v = Vec.create ~default:9 () in
  check_int "default beyond data" 9 (Vec.get v 1_000_000)

let test_vec_clear () =
  let v = Vec.create ~default:0 () in
  ignore (Vec.push v 5);
  Vec.clear v;
  check_int "length reset" 0 (Vec.length v);
  check_int "value reset" 0 (Vec.get v 0)

(* ---- Lru ------------------------------------------------------------ *)

let check_keys = Alcotest.(check (list string))

let test_lru_eviction_order () =
  let evicted = ref [] in
  let t =
    Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~budget:3 ()
  in
  Lru.add t "a" ~cost:1 "A";
  Lru.add t "b" ~cost:1 "B";
  Lru.add t "c" ~cost:1 "C";
  check_keys "mru order" [ "c"; "b"; "a" ] (Lru.keys t);
  (* One unit over budget: the least-recently-used entry goes. *)
  Lru.add t "d" ~cost:1 "D";
  check_keys "a evicted first" [ "a" ] (List.rev !evicted);
  check_keys "survivors" [ "d"; "c"; "b" ] (Lru.keys t);
  (* A large insertion evicts from the LRU end until it fits. *)
  Lru.add t "e" ~cost:3 "E";
  check_keys "b then c then d" [ "a"; "b"; "c"; "d" ] (List.rev !evicted);
  check_keys "only e" [ "e" ] (Lru.keys t)

let test_lru_hit_promotion () =
  let t = Lru.create ~budget:3 () in
  Lru.add t "a" ~cost:1 "A";
  Lru.add t "b" ~cost:1 "B";
  Lru.add t "c" ~cost:1 "C";
  (* Touch "a": it must now survive the next eviction instead of "b". *)
  Alcotest.(check (option string)) "find hits" (Some "A") (Lru.find t "a");
  Lru.add t "d" ~cost:1 "D";
  check_keys "b evicted, a kept" [ "d"; "a"; "c" ] (Lru.keys t);
  (* peek must NOT promote. *)
  Alcotest.(check (option string)) "peek hits" (Some "C") (Lru.peek t "c");
  Lru.add t "e" ~cost:1 "E";
  check_keys "c evicted despite peek" [ "e"; "d"; "a" ] (Lru.keys t)

let test_lru_byte_accounting () =
  let t = Lru.create ~budget:100 () in
  Lru.add t "a" ~cost:40 "A";
  Lru.add t "b" ~cost:40 "B";
  check_int "cost sums" 80 (Lru.cost t);
  Lru.add t "c" ~cost:40 "C";
  (* 120 > 100: "a" must go, leaving 80. *)
  check_int "cost after eviction" 80 (Lru.cost t);
  check_int "two entries" 2 (Lru.length t);
  Lru.remove t "b";
  check_int "cost after remove" 40 (Lru.cost t);
  check_int "budget preserved" 100 (Lru.budget t)

let test_lru_replace_recosts () =
  let t = Lru.create ~budget:10 () in
  Lru.add t "a" ~cost:4 "A";
  Lru.add t "b" ~cost:4 "B";
  Lru.add t "a" ~cost:6 "A2";
  check_int "re-costed" 10 (Lru.cost t);
  Alcotest.(check (option string)) "new value" (Some "A2") (Lru.peek t "a");
  check_keys "replacement promotes" [ "a"; "b" ] (Lru.keys t)

let test_lru_oversized_entry () =
  let evicted = ref [] in
  let t =
    Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~budget:5 ()
  in
  (* An entry bigger than the whole budget is admitted and immediately
     evicted (spill hook still observes it). *)
  Lru.add t "big" ~cost:9 "B";
  check_int "nothing resident" 0 (Lru.length t);
  check_int "no residual cost" 0 (Lru.cost t);
  check_keys "evict hook saw it" [ "big" ] !evicted

let test_lru_remove () =
  let evicted = ref 0 in
  let t = Lru.create ~on_evict:(fun _ _ -> incr evicted) ~budget:10 () in
  Lru.add t "a" ~cost:1 "A";
  Lru.remove t "a";
  Lru.remove t "a";
  check_bool "gone" false (Lru.mem t "a");
  check_int "remove is not eviction" 0 !evicted

let test_lru_rejects_negatives () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Lru.create: negative budget") (fun () ->
      ignore (Lru.create ~budget:(-1) () : unit Lru.t));
  let t = Lru.create ~budget:1 () in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Lru.add: negative cost") (fun () ->
      Lru.add t "a" ~cost:(-1) ())

(* ---- Plot ------------------------------------------------------------ *)

let test_plot_empty () =
  Alcotest.(check string) "empty" "" (Plot.scatter [])

let test_plot_contains_points_and_axes () =
  let out = Plot.scatter ~width:20 ~height:10 [ (1.0, 2.0); (-3.0, -1.0) ] in
  check_bool "has stars" true (String.contains out '*');
  check_bool "has vertical axis" true (String.contains out '|');
  check_bool "has horizontal axis" true (String.contains out '-');
  let lines = String.split_on_char '\n' out in
  (* header + 10 rows + trailing empty *)
  check_int "height respected" 12 (List.length lines)

let test_plot_overlap_marker () =
  let out = Plot.scatter ~width:10 ~height:5 [ (5.0, 5.0); (5.0, 5.0) ] in
  check_bool "coincident points marked" true (String.contains out '@')

let test_plot_labels () =
  let out =
    Plot.scatter ~x_label:"speedup" ~y_label:"copies" [ (1.0, 1.0) ]
  in
  check_bool "labels present" true
    (String.length out > 0
    && (let header = List.hd (String.split_on_char '\n' out) in
        let contains s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        contains header "speedup" && contains header "copies"))

(* ---- Parallel ---------------------------------------------------------- *)

(* [Parallel.map] with a stateless [f]; results only. *)
let pmap ?domains f groups =
  fst (Parallel.map ?domains ~init:ignore ~f:(fun () x -> f x) groups)

let test_parallel_matches_sequential () =
  let groups = List.init 25 (fun g -> List.init 4 (fun i -> (4 * g) + i)) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list (list int))) "order-deterministic"
    (List.map (List.map f) groups)
    (pmap ~domains:4 f groups)

let test_parallel_groups_of_any_size () =
  (* Uneven group sizes, empty groups included: results keep group and
     element order whatever the split. *)
  let f x = (x * 3) - 1 in
  List.iter
    (fun sizes ->
      let groups =
        List.mapi (fun g k -> List.init k (fun i -> (g * 100) + i)) sizes
      in
      Alcotest.(check (list (list int)))
        (String.concat "," (List.map string_of_int sizes))
        (List.map (List.map f) groups)
        (pmap ~domains:4 f groups))
    [ [ 1; 2; 5; 37 ]; [ 0; 3; 0; 0; 1 ]; [ 100 ]; List.init 53 (fun _ -> 1) ]

let test_parallel_single_domain () =
  (* One worker: no domain is spawned and one state serves every
     group. *)
  let caller = Domain.self () in
  let results, states =
    Parallel.map ~domains:1
      ~init:(fun w -> w)
      ~f:(fun w x ->
        check_bool "runs in the caller's domain" true (Domain.self () = caller);
        x + w)
      [ [ 1; 2 ]; [ 3 ] ]
  in
  Alcotest.(check (list (list int))) "sequential path" [ [ 1; 2 ]; [ 3 ] ]
    results;
  Alcotest.(check (list int)) "single state 0" [ 0 ] states

let test_parallel_empty_and_singleton () =
  let results, states =
    Parallel.map ~domains:4 ~init:(fun _ -> Alcotest.fail "init on empty input")
      ~f:(fun () x -> x) []
  in
  Alcotest.(check (list (list int))) "empty" [] results;
  check_int "no states" 0 (List.length states);
  Alcotest.(check (list (list int))) "singleton" [ [ 7 ] ]
    (pmap ~domains:4 Fun.id [ [ 7 ] ]);
  Alcotest.(check (list (list int))) "one empty group" [ [] ]
    (pmap ~domains:4 Fun.id [ [] ])

let test_parallel_worker_states () =
  (* One state per worker, never more workers than groups, and every
     element visited exactly once. *)
  let groups = List.init 10 (fun g -> List.init 4 (fun i -> (4 * g) + i)) in
  let f state x =
    incr state;
    x * 2
  in
  let results, states =
    Parallel.map ~domains:4 ~init:(fun _ -> ref 0) ~f groups
  in
  Alcotest.(check (list (list int))) "results in input order"
    (List.map (List.map (fun x -> x * 2)) groups)
    results;
  check_int "one state per worker" 4 (List.length states);
  check_int "every element visited exactly once" 40
    (List.fold_left (fun acc r -> acc + !r) 0 states);
  let _, states =
    Parallel.map ~domains:4 ~init:ignore ~f:(fun () x -> x) [ [ 1 ]; [ 2 ] ]
  in
  check_int "no more workers than groups" 2 (List.length states)

let test_parallel_groups_run_whole () =
  (* Each worker's state records what it ran: every group must appear
     in exactly one state, whole and in element order. *)
  let groups =
    List.init 12 (fun g -> List.init ((g mod 4) + 1) (fun i -> (g, i)))
  in
  let _, states =
    Parallel.map ~domains:4
      ~init:(fun _ -> ref [])
      ~f:(fun ran (g, i) ->
        ran := (g, i) :: !ran;
        Unix.sleepf 0.0005)
      groups
  in
  let runs = List.map (fun ran -> List.rev !ran) states in
  let rec from g = function
    | (g', _) :: _ as run when g' = g -> run
    | _ :: rest -> from g rest
    | [] -> []
  in
  List.iteri
    (fun g group ->
      let owners = List.filter (List.exists (fun (g', _) -> g' = g)) runs in
      check_int (Printf.sprintf "group %d on one worker" g) 1
        (List.length owners);
      let n = List.length group in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "group %d whole and in order" g)
        group
        (List.filteri (fun i _ -> i < n) (from g (List.hd owners))))
    groups

let test_parallel_claiming_balances () =
  (* Two workers, groups [slow; a; b; c]: [slow] waits until a, b and c
     are done, so the other worker must claim all three. A contiguous
     split ([slow; a] | [b; c]) would leave [a] queued behind [slow]
     on one worker; the wait is bounded so that fails instead of
     hanging. *)
  let finished = Atomic.make 0 in
  let f = function
    | `Slow ->
        let deadline = Unix.gettimeofday () +. 2.0 in
        while Atomic.get finished < 3 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        Atomic.get finished
    | `Fast ->
        Atomic.incr finished;
        0
  in
  let results, _ =
    Parallel.map ~domains:2 ~init:ignore ~f:(fun () x -> f x)
      [ [ `Slow ]; [ `Fast ]; [ `Fast ]; [ `Fast ] ]
  in
  Alcotest.(check (list (list int))) "slow group saw a, b and c finish"
    [ [ 3 ]; [ 0 ]; [ 0 ]; [ 0 ] ]
    results

let test_parallel_propagates_exception () =
  Alcotest.check_raises "worker failure" (Failure "boom") (fun () ->
      ignore
        (pmap ~domains:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 (fun x -> [ x ]))));
  Alcotest.check_raises "failure inside a group" (Failure "group boom")
    (fun () ->
      ignore
        (pmap ~domains:3
           (fun x -> if x = 11 then failwith "group boom" else x)
           (List.init 5 (fun g -> List.init 4 (fun i -> (4 * g) + i)))));
  Alcotest.check_raises "failure in init" (Failure "init boom") (fun () ->
      ignore
        (Parallel.map ~domains:2
           ~init:(fun w -> if w = 1 then failwith "init boom")
           ~f:(fun () x -> x)
           [ [ 1 ]; [ 2 ] ]))

(* The claiming cursor with claim units of a fixed size: [chunks k xs]
   cuts [xs] into groups of [k] elements (the last one shorter). *)
let chunks k xs =
  List.init ((List.length xs + k - 1) / k) (fun g ->
      List.filteri (fun i _ -> i / k = g) xs)

let test_parallel_steal_matches_sequential () =
  let xs = List.init 53 Fun.id in
  let f x = (x * 7) mod 11 in
  List.iter
    (fun chunk ->
      Alcotest.(check (list int))
        (Printf.sprintf "steal chunk %d" chunk)
        (List.map f xs)
        (List.concat (pmap ~domains:4 f (chunks chunk xs))))
    [ 1; 2; 5; 53; 100 ]

let test_parallel_steal_propagates_exception () =
  Alcotest.check_raises "steal worker failure" (Failure "steal boom")
    (fun () ->
      ignore
        (pmap ~domains:3
           (fun x -> if x = 9 then failwith "steal boom" else x)
           (chunks 2 (List.init 20 Fun.id))))

(* Per-worker state, checked on the edge cases of the state-returning
   path. *)
let test_parallel_map_sharded_single_worker () =
  let results, states =
    Parallel.map ~domains:1 ~init:(fun w -> w) ~f:(fun w x -> x + w)
      [ [ 1; 2; 3 ] ]
  in
  Alcotest.(check (list (list int))) "sequential path" [ [ 1; 2; 3 ] ] results;
  Alcotest.(check (list int)) "single state 0" [ 0 ] states

let test_parallel_map_sharded_empty () =
  let results, states =
    Parallel.map ~domains:4 ~init:(fun _ -> ()) ~f:(fun () x -> x) []
  in
  Alcotest.(check (list (list int))) "no results" [] results;
  check_int "no states" 0 (List.length states)

let test_parallel_map_sharded_propagates_exception () =
  Alcotest.check_raises "stateful worker failure" (Failure "shard boom")
    (fun () ->
      ignore
        (Parallel.map ~domains:3
           ~init:(fun _ -> ref 0)
           ~f:(fun n x ->
             incr n;
             if x = 11 then failwith "shard boom" else x)
           (chunks 4 (List.init 20 Fun.id))))

let test_parallel_default_domains () =
  check_bool "at least one" true (Parallel.default_domains () >= 1);
  check_bool "capped" true
    (Parallel.default_domains () <= Parallel.default_domain_cap);
  check_int "documented cap" 8 Parallel.default_domain_cap

let test_parallel_exception_keeps_backtrace () =
  (* The re-raise must preserve the worker's exception payload; raising
     from a multi-domain run exercises the backtrace-carrying failure
     slot. *)
  Alcotest.check_raises "worker failure" (Failure "grouped boom") (fun () ->
      ignore
        (pmap ~domains:4
           (fun x -> if x = 17 then failwith "grouped boom" else x)
           (List.init 8 (fun g -> List.init 4 (fun i -> (4 * g) + i)))))

let test_parallel_failure_stops_per_element () =
  (* Two large groups, one per worker. The first group poisons the run
     once the other worker is well into the second group; that worker
     must notice before its next element rather than draining the
     group. Its elements sleep, so a group-granular check would
     evaluate ~100 of them; the per-element check stops almost
     immediately. *)
  let evaluated = Atomic.make 0 in
  (try
     ignore
       (pmap ~domains:2
          (fun x ->
            Atomic.incr evaluated;
            if x = 0 then begin
              Unix.sleepf 0.02;
              failwith "poison"
            end
            else Unix.sleepf 0.002)
          [ List.init 100 Fun.id; List.init 100 (fun i -> 100 + i) ]);
     Alcotest.fail "expected the poisoned run to raise"
   with Failure msg when msg = "poison" -> ());
  check_bool
    (Printf.sprintf "stopped early (evaluated %d of 200)" (Atomic.get evaluated))
    true
    (Atomic.get evaluated < 50)

let test_parallel_helpers_outlive_calls () =
  (* Helpers are spawned once and parked between calls: 100 calls at 3
     domains add at most 2 helpers to the pool, whatever earlier calls
     spawned, and every call still returns its own results. *)
  let before = Parallel.helpers () in
  for i = 1 to 100 do
    let groups = List.init 6 (fun g -> [ g; i ]) in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "call %d" i)
      (List.map (List.map (fun x -> x * i)) groups)
      (pmap ~domains:3 (fun x -> x * i) groups)
  done;
  let after = Parallel.helpers () in
  check_bool
    (Printf.sprintf "at most 2 new helpers (%d -> %d)" before after)
    true
    (after - before <= 2 && after <= max before 2)

let test_parallel_helper_state_persists () =
  (* A helper's domain-local state survives between calls. Each call
     has two groups, and the first waits (bounded) until the second is
     done, so each call's two groups run on two different workers: the
     caller and the one helper. Each bumps a domain-local counter, so
     the second call reads 2 on both only if its helper is the first
     call's. *)
  let key = Domain.DLS.new_key (fun () -> ref 0) in
  let call () =
    let fast_done = Atomic.make false in
    let bump () =
      let r = Domain.DLS.get key in
      incr r;
      !r
    in
    let f = function
      | `Slow ->
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            (not (Atomic.get fast_done)) && Unix.gettimeofday () < deadline
          do
            Domain.cpu_relax ()
          done;
          bump ()
      | `Fast ->
          let v = bump () in
          Atomic.set fast_done true;
          v
    in
    fst
      (Parallel.map ~domains:2 ~init:ignore
         ~f:(fun () x -> f x)
         [ [ `Slow ]; [ `Fast ] ])
  in
  Alcotest.(check (list (list int))) "first call" [ [ 1 ]; [ 1 ] ] (call ());
  Alcotest.(check (list (list int))) "second call, same domains" [ [ 2 ]; [ 2 ] ]
    (call ())

let test_parallel_nested_runs_inline () =
  (* A map from inside a helper's share of a map (or from worker 0,
     which then finds the pool owned) runs inline and returns the same
     results instead of waiting on the pool it is part of. *)
  let inner_groups = [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let inner x = pmap ~domains:2 (fun y -> (10 * x) + y) inner_groups in
  let outer_groups = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  Alcotest.(check (list (list (list (list int)))))
    "nested results"
    (List.map
       (List.map (fun x ->
            List.map (List.map (fun y -> (10 * x) + y)) inner_groups))
       outer_groups)
    (pmap ~domains:2 inner outer_groups)

let test_parallel_busy_pool_runs_inline () =
  (* A map from another domain while the pool is owned does not wait
     for it: the owner's first group blocks until the other call has
     returned (bounded, so a deadlock fails instead of hanging). *)
  let started = Atomic.make false and other_done = Atomic.make false in
  let wait_for flag =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  let other =
    Domain.spawn (fun () ->
        ignore (wait_for started);
        let r = pmap ~domains:2 (fun x -> x + 1) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
        Atomic.set other_done true;
        r)
  in
  let results =
    pmap ~domains:2
      (fun x ->
        if x = 0 then begin
          Atomic.set started true;
          wait_for other_done
        end
        else true)
      [ [ 0 ]; [ 1 ] ]
  in
  Alcotest.(check (list (list int))) "the other call's results"
    [ [ 2 ]; [ 3 ]; [ 4 ] ] (Domain.join other);
  Alcotest.(check (list (list bool))) "it returned while the pool was owned"
    [ [ true ]; [ true ] ] results

let test_parallel_usable_after_failure () =
  (* A worker's failure reaches the caller; the helpers park again and
     the next call on the pool returns correct results. *)
  for round = 1 to 3 do
    Alcotest.check_raises
      (Printf.sprintf "round %d fails" round)
      (Failure "helper boom")
      (fun () ->
        ignore
          (pmap ~domains:3
             (fun x -> if x = 4 then failwith "helper boom" else x)
             (List.init 8 (fun x -> [ x ]))));
    Alcotest.(check (list (list int)))
      (Printf.sprintf "round %d, next call" round)
      (List.init 8 (fun x -> [ x * x ]))
      (pmap ~domains:3 (fun x -> x * x) (List.init 8 (fun x -> [ x ])))
  done

(* ---- Table / Csv ---------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[| "name"; "value" |]
      [ [| "a"; "1" |]; [| "longer"; "22" |] ]
  in
  let lines = String.split_on_char '\n' out in
  check_int "line count" 5 (List.length lines) (* header, rule, 2 rows, trailing *)

let test_table_arity_check () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.render: row 0 has wrong arity") (fun () ->
      ignore (Table.render ~header:[| "a"; "b" |] [ [| "x" |] ]))

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "percent" "2.6%" (Table.fmt_percent ~decimals:1 2.62)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_write_read () =
  let path = Filename.temp_file "clusteer" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ] [ [ "1"; "a,b" ]; [ "2"; "c" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "roundtrip"
    [ "x,y"; "1,\"a,b\""; "2,c" ]
    (List.rev !lines)

(* ---- Fs -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_fs_mkdir_p () =
  let root = Filename.temp_file "clusteer_fs" "" in
  Sys.remove root;
  let nested = Filename.concat (Filename.concat root "a") "b" in
  Fs.mkdir_p nested;
  check_bool "nested dirs made" true (Sys.is_directory nested);
  Fs.mkdir_p nested;
  check_bool "existing dir is fine" true (Sys.is_directory nested);
  (* A regular file where a directory is needed, as the leaf or as a
     parent: Sys_error, which the CLI reports in one line. *)
  let file = Filename.concat root "file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  let raises_sys_error dir =
    match Fs.mkdir_p dir with
    | () -> false
    | exception Sys_error _ -> true
  in
  check_bool "file as the leaf" true (raises_sys_error file);
  check_bool "file as a parent" true
    (raises_sys_error (Filename.concat file "sub"));
  Sys.remove file;
  Sys.rmdir nested;
  Sys.rmdir (Filename.dirname nested);
  Sys.rmdir root

let test_fs_write_atomic () =
  let path = Filename.temp_file "clusteer_fs" ".txt" in
  Fs.write_atomic ~path (fun oc -> output_string oc "first");
  Alcotest.(check string) "written" "first" (read_file path);
  (* A writer that fails leaves the old file whole and no temporary. *)
  Alcotest.check_raises "writer failure re-raised" (Failure "boom") (fun () ->
      Fs.write_atomic ~path (fun oc ->
          output_string oc "partial";
          failwith "boom"));
  Alcotest.(check string) "old content kept" "first" (read_file path);
  check_bool "temporary removed" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "pick_weighted" `Quick test_rng_pick_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "geometric certain" `Quick test_rng_geometric_certain;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
          Alcotest.test_case "weighted zero" `Quick test_stats_weighted_mean_zero_weight;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "ratio percent" `Quick test_stats_ratio_percent;
          Alcotest.test_case "online matches batch" `Quick test_stats_online_matches_batch;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "empty raises" `Quick test_pqueue_empty_raises;
          qc prop_pqueue_sorted;
          qc prop_pqueue_model;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "same-cycle fifo" `Quick test_wheel_same_cycle_fifo;
          Alcotest.test_case "next_due" `Quick test_wheel_next_due;
          Alcotest.test_case "grows past horizon" `Quick
            test_wheel_grows_past_horizon;
          Alcotest.test_case "rejects passed cycle" `Quick
            test_wheel_rejects_passed_cycle;
          Alcotest.test_case "clear" `Quick test_wheel_clear;
          qc prop_wheel_model;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "get" `Quick test_ring_get;
          Alcotest.test_case "free slots" `Quick test_ring_free_slots;
          qc prop_ring_model;
          Alcotest.test_case "empty raises" `Quick test_ring_empty_raises;
          qc prop_ring_front_drop_model;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_queues_steady_state_allocate_nothing;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
          qc prop_bitset_set_semantics;
        ] );
      ( "vec",
        [
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "push" `Quick test_vec_push;
          Alcotest.test_case "get beyond" `Quick test_vec_get_beyond;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "groups of any size match sequential" `Quick
            test_parallel_groups_of_any_size;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "empty and singleton" `Quick test_parallel_empty_and_singleton;
          Alcotest.test_case "worker states" `Quick test_parallel_worker_states;
          Alcotest.test_case "groups run whole on one worker" `Quick
            test_parallel_groups_run_whole;
          Alcotest.test_case "claiming balances the work" `Quick
            test_parallel_claiming_balances;
          Alcotest.test_case "propagates exception" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "steal matches sequential" `Quick
            test_parallel_steal_matches_sequential;
          Alcotest.test_case "steal propagates exception" `Quick
            test_parallel_steal_propagates_exception;
          Alcotest.test_case "map_sharded single worker" `Quick
            test_parallel_map_sharded_single_worker;
          Alcotest.test_case "map_sharded empty" `Quick
            test_parallel_map_sharded_empty;
          Alcotest.test_case "map_sharded propagates exception" `Quick
            test_parallel_map_sharded_propagates_exception;
          Alcotest.test_case "default domains" `Quick test_parallel_default_domains;
          Alcotest.test_case "exception keeps backtrace" `Quick
            test_parallel_exception_keeps_backtrace;
          Alcotest.test_case "failure stops per element" `Quick
            test_parallel_failure_stops_per_element;
          Alcotest.test_case "helpers outlive calls" `Quick
            test_parallel_helpers_outlive_calls;
          Alcotest.test_case "helper state persists" `Quick
            test_parallel_helper_state_persists;
          Alcotest.test_case "nested map runs inline" `Quick
            test_parallel_nested_runs_inline;
          Alcotest.test_case "busy pool runs inline" `Quick
            test_parallel_busy_pool_runs_inline;
          Alcotest.test_case "usable after a failure" `Quick
            test_parallel_usable_after_failure;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "hit promotion" `Quick test_lru_hit_promotion;
          Alcotest.test_case "byte accounting" `Quick test_lru_byte_accounting;
          Alcotest.test_case "replace re-costs" `Quick test_lru_replace_recosts;
          Alcotest.test_case "oversized entry" `Quick test_lru_oversized_entry;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "rejects negatives" `Quick test_lru_rejects_negatives;
        ] );
      ( "plot",
        [
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "points and axes" `Quick test_plot_contains_points_and_axes;
          Alcotest.test_case "overlap marker" `Quick test_plot_overlap_marker;
          Alcotest.test_case "labels" `Quick test_plot_labels;
        ] );
      ( "table-csv",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
          Alcotest.test_case "csv escape" `Quick test_csv_escape;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_write_read;
        ] );
      ( "fs",
        [
          Alcotest.test_case "mkdir_p" `Quick test_fs_mkdir_p;
          Alcotest.test_case "write_atomic" `Quick test_fs_write_atomic;
        ] );
    ]
