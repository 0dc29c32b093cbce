(* Host-speed index: samples of the reference kernel in calib/calib.exe,
   a child process, taken between the timed passes of a run.

   On the host the benchmark was written on, the simulator's speed
   drifted by 20 to 30% within minutes, and differently on its two
   virtual CPUs. An allocation-heavy kernel's speed drifted with it
   (correlation 0.95 between their medians over 50-second windows, with
   both on one CPU) while arithmetic and pointer-chasing kernels did
   not. Every host time the benchmark reports with tracing off is
   therefore scaled to a reference host speed: divided by an index, the
   median sample over [reference_s], and rates are multiplied by it.
   A sampling point times the kernel on the CPU this process was running
   on and then on every other CPU it may use: work of this process's one
   domain is scaled by the first kind ([own]), work spread over domains
   or processes by all of them ([all]). The index tracks the host only
   when samples are dense (one every second or so), so the benchmark
   samples between its passes and, where a pass is long, between its
   requests. The unscaled figures go to the log. *)

type t = {
  pid : int;
  requests : out_channel;
  replies : in_channel;
  cpus : int list;  (** the CPUs the reference may run on *)
  mutable own : float list;  (** seconds on this process's CPU, newest first *)
  mutable others : float list;  (** seconds on the other CPUs *)
}

(* The kernel's typical time on the development host (2-vCPU x86-64
   VM). It only sets the scale: an index of 1 is that speed. *)
let reference_s = 0.075

let exe () =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat "calib" "calib.exe")

(* The CPU this process last ran on: field 39 of /proc/self/stat. *)
let current_cpu t =
  let fallback = List.hd t.cpus in
  match In_channel.with_open_text "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> fallback
  | line -> (
      let rest = String.rindex line ')' + 2 in
      let fields = String.split_on_char ' ' (String.sub line rest (String.length line - rest)) in
      match Option.bind (List.nth_opt fields 36) int_of_string_opt with
      | Some c when List.mem c t.cpus -> c
      | _ -> fallback)

let time_on t cpu =
  Printf.fprintf t.requests "%d\n%!" cpu;
  match int_of_string_opt (String.trim (input_line t.replies)) with
  | Some ns -> float_of_int ns *. 1e-9
  | None -> failwith "host-speed reference: bad reply"

(* A sample on this process's CPU alone. *)
let sample_own t = t.own <- time_on t (current_cpu t) :: t.own

(* One sampling point: the kernel on this process's CPU, then on each
   other CPU. *)
let sample t =
  let mine = current_cpu t in
  t.own <- time_on t mine :: t.own;
  List.iter
    (fun cpu -> if cpu <> mine then t.others <- time_on t cpu :: t.others)
    t.cpus

let stop t =
  close_out_noerr t.requests;
  close_in_noerr t.replies;
  ignore (Unix.waitpid [] t.pid)

(* [with_reference f] runs [f] with a started reference process and
   stops it on every way out. A first sampling point warms the child
   up and is dropped. *)
let with_reference f =
  let exe = exe () in
  if not (Sys.file_exists exe) then failwith ("host-speed reference missing: " ^ exe);
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  let t =
    {
      pid;
      requests = Unix.out_channel_of_descr req_w;
      replies = Unix.in_channel_of_descr rep_r;
      cpus = [];
      own = [];
      others = [];
    }
  in
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      let cpus =
        match String.split_on_char ' ' (String.trim (input_line t.replies)) with
        | "cpus" :: cpus -> List.filter_map int_of_string_opt cpus
        | _ -> []
      in
      if cpus = [] then failwith "host-speed reference: no CPUs";
      let t = { t with cpus } in
      sample t;
      t.own <- [];
      t.others <- [];
      f t)

(* How much slower than the reference the host ran over the samples so
   far, for one domain's work ([own]) or for work on every CPU ([all]):
   divide a host time by it, multiply a rate by it. *)
let own_s t = Meter.median t.own
let own t = own_s t /. reference_s
let all t =
  match t.others with
  | [] -> own t
  | others ->
      (* Each CPU weighs the same, however many samples it has. *)
      let n = float_of_int (List.length t.cpus) in
      (own_s t +. ((n -. 1.0) *. Meter.median others)) /. n /. reference_s
let samples t = List.length t.own
