(* In-memory span recorder for the traced run.

   A span is one call across a layer boundary: its layer name, start
   and end on the monotonic clock, minor-heap words allocated meanwhile,
   the span that caused it, and the id of the point or request it
   belongs to. Per-micro-op calls (trace generation, the steering
   decision) are far too many to keep one span each, so they are
   accumulated into one aggregate child span per [Engine.run] with a
   call count ([calls > 1]); its start is the run's start and its
   duration the summed call time. Spans stay in memory until the run
   ends and are then written out as one JSON document. *)

type span = {
  sid : int;
  id : int;
  name : string;
  parent : int;  (** sid of the causing span, -1 for a root *)
  mutable start_ns : int;
  mutable end_ns : int;
  mutable words : float;
  mutable calls : int;
}

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

let enter t ~id ~name ~parent =
  let s =
    {
      sid = t.len;
      id;
      name;
      parent;
      start_ns = Meter.now_ns ();
      end_ns = 0;
      words = -.Gc.minor_words ();
      calls = 1;
    }
  in
  push t s;
  s.sid

let leave t sid =
  let s = t.spans.(sid) in
  s.words <- s.words +. Gc.minor_words ();
  s.end_ns <- Meter.now_ns ()

(* [with_span t ~id ~name ~parent f] records [f sid]. *)
let with_span t ~id ~name ~parent f =
  let sid = enter t ~id ~name ~parent in
  match f sid with
  | r ->
      leave t sid;
      r
  | exception e ->
      leave t sid;
      raise e

let aggregate t ~id ~name ~parent ~ns ~words ~calls =
  let start = t.spans.(parent).start_ns in
  push t
    {
      sid = t.len;
      id;
      name;
      parent;
      start_ns = start;
      end_ns = start + ns;
      words;
      calls;
    }

let to_list t = Array.to_list (Array.sub t.spans 0 t.len)
let duration s = s.end_ns - s.start_ns

(* Self time of every span: its duration minus its children's. *)
let self_ns t =
  let self = Array.init t.len (fun i -> duration t.spans.(i)) in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - duration s
  done;
  self

let self_words t =
  let self = Array.init t.len (fun i -> t.spans.(i).words) in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. s.words
  done;
  self

(* Sum of a per-span array over the spans whose name satisfies [p]. *)
let sum_by t values p =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    if p t.spans.(i).name then acc := !acc +. values.(i)
  done;
  !acc

let durations_ms t name =
  List.filter_map
    (fun s ->
      if String.equal s.name name then
        Some (float_of_int (duration s) *. 1e-6)
      else None)
    (to_list t)

let write t path =
  let module J = Clusteer_obs.Json in
  let self = self_ns t in
  let origin = if t.len = 0 then 0 else t.spans.(0).start_ns in
  let span s =
    J.Obj
      [
        ("sid", J.Int s.sid);
        ("id", J.Int s.id);
        ("name", J.Str s.name);
        ("parent", J.Int s.parent);
        ("start_ns", J.Int (s.start_ns - origin));
        ("end_ns", J.Int (s.end_ns - origin));
        ("self_ns", J.Int self.(s.sid));
        ("minor_words", J.Float s.words);
        ("calls", J.Int s.calls);
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      J.output oc (J.Obj [ ("spans", J.List (List.map span (to_list t))) ]);
      output_char oc '\n')
