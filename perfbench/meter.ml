(* Host-time and allocation meters, and the order statistics the
   benchmark reports.

   The clock is the monotonic nanosecond clock of bechamel's stub,
   declared here as an unboxed, non-allocating external so that timing
   a call on the simulator's hot path adds no minor-heap words of its
   own. [Gc.minor_words] is likewise unboxed and non-allocating. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [timed f] is [f ()] with its wall seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks, the definition Python's
   [statistics.quantiles(method="inclusive")] uses. *)
let quantile xs q =
  match sorted xs with
  | [] -> invalid_arg "Meter.quantile: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
