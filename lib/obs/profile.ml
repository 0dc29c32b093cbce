(* Pipeline self-profiler: named wall-clock spans aggregated into the
   counter registry's histograms.

   A span accumulates elapsed nanoseconds across any number of
   enter/leave pairs and contributes ONE histogram observation per
   flush — the engine enters/leaves a phase span every cycle and
   flushes once per run, so the [profile.*] histograms hold
   per-run phase totals and their percentiles summarize across runs.
   Like the event sink, the profiler is an option at every
   instrumentation site: disabled costs one pattern match and no
   allocation.

   The default clock is the monotonic nanosecond clock of bechamel's
   stub, bound as an unboxed, non-allocating external: an engine stage
   is entered and left every simulated cycle, so the clock must neither
   box a float nor round to the microsecond. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let monotonic_ns () = Int64.to_int (clock_ns ())

(* No enter is pending. *)
let outside = min_int

type span = {
  name : string;
  hist : Counters.histogram;
  clock : unit -> int;
  mutable t0 : int;  (* clock at enter, or [outside] *)
  mutable acc_ns : int;  (* accumulated since the last flush *)
}

type t = {
  registry : Counters.registry;
  clock : unit -> int;
  spans : (string, span) Hashtbl.t;
  mutable all : span list;
}

let create ?(registry = Counters.default) ?(clock = monotonic_ns) () =
  { registry; clock; spans = Hashtbl.create 8; all = [] }

let hist_name name = "profile." ^ name ^ ".ns"

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          hist = Counters.histogram ~registry:t.registry (hist_name name);
          clock = t.clock;
          t0 = outside;
          acc_ns = 0;
        }
      in
      Hashtbl.add t.spans name s;
      t.all <- s :: t.all;
      s

let enter (s : span) = s.t0 <- s.clock ()

let leave (s : span) =
  if s.t0 <> outside then begin
    s.acc_ns <- s.acc_ns + max 0 (s.clock () - s.t0);
    s.t0 <- outside
  end

let flush s =
  Counters.observe s.hist s.acc_ns;
  s.acc_ns <- 0

let flush_all t = List.iter flush t.all

let time s f =
  enter s;
  Fun.protect
    ~finally:(fun () ->
      leave s;
      flush s)
    f
