(* Host-speed reference of the clusteer benchmark.

   On the benchmark's host, a small VM on a shared machine, the speed
   of allocation-heavy OCaml code such as the simulator drifts by a
   quarter or more within minutes, and differently on each virtual CPU,
   while plain arithmetic barely moves. This process times a fixed
   allocation-heavy kernel on the CPU it is asked for, so the benchmark
   can scale its host times to a reference host speed (see
   RATIONALE.md). It is a process of its own so that the benchmark's
   heap does not slow the kernel, and it pins its own GC settings, so
   nothing the simulator sets moves the reference either.

   Protocol: the first line written is "cpus" and the CPUs this process
   may run on. Every line read from stdin then names a CPU; the reply
   is one line, the kernel's wall time in nanoseconds on that CPU. End
   of input ends the process. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

external pin : int -> bool = "calib_pin"
external allowed : unit -> int list = "calib_allowed"

module Int_map = Map.Make (Int)

(* A persistent map of boxed pairs, built and folded. *)
let map_kernel n =
  let m = ref Int_map.empty in
  for i = 1 to n do
    m := Int_map.add ((i * 40503) land 0xfffff) (float_of_int i, i) !m
  done;
  Int_map.fold (fun _ (f, i) acc -> acc + i + int_of_float f) !m 0

(* A hash table of small arrays, filled and probed. *)
let table_kernel n =
  let h = Hashtbl.create 1024 in
  for i = 1 to n do
    Hashtbl.replace h ((i * 40503) land 0x3ffff) (Array.make 4 i)
  done;
  let s = ref 0 in
  for i = 1 to n do
    match Hashtbl.find_opt h ((i * 7) land 0x3ffff) with
    | Some a -> s := !s + a.(1)
    | None -> ()
  done;
  !s

let kernel () = map_kernel 60_000 + table_kernel 90_000

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  Printf.printf "cpus %s\n%!" (String.concat " " (List.map string_of_int (allowed ())));
  try
    while true do
      let cpu = int_of_string (String.trim (input_line stdin)) in
      if not (pin cpu) then failwith ("cannot run on CPU " ^ string_of_int cpu);
      let t0 = clock_ns () in
      ignore (Sys.opaque_identity (kernel ()));
      let dt = Int64.sub (clock_ns ()) t0 in
      Printf.printf "%Ld\n%!" dt
    done
  with End_of_file -> ()
