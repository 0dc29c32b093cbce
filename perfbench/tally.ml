(* Operations attempted and failed in one benchmark run. Each checked
   simulation result or served request is one operation; a result that
   differs from its reference, or a call that raised, is a failure. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, capped *)
}

let create () = { attempted = 0; failed = 0; problems = [] }

let add t ~ops ~bad what =
  t.attempted <- t.attempted + ops;
  if bad > 0 then begin
    t.failed <- t.failed + min ops bad;
    if List.length t.problems < 20 then
      t.problems <- Printf.sprintf "%s: %d of %d" what bad ops :: t.problems
  end

(* [guard t ~ops what f] runs [f]; if it raises, all [ops] operations
   it stood for fail. *)
let guard t ~ops what f =
  match f () with
  | v -> Some v
  | exception e ->
      add t ~ops ~bad:ops (what ^ " raised " ^ Printexc.to_string e);
      None

let ok_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted
