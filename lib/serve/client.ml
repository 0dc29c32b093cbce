let call_lines ?timeout_s ~socket lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Option.iter
        (fun t ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO t)
        timeout_s;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines;
      flush oc;
      (* Half-close: the server reads until EOF before dispatching the
         batch, then writes its responses back on the same socket. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr fd in
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
        | exception Sys_error _ when Option.is_some timeout_s ->
            failwith
              (Printf.sprintf "no reply from %s within %g s" socket
                 (Option.get timeout_s))
      in
      go [])

let call ?timeout_s ~socket commands =
  let replies =
    call_lines ?timeout_s ~socket (List.map Protocol.encode_command commands)
  in
  let parsed = List.map Protocol.parse_response replies in
  let missing = List.length commands - List.length parsed in
  if missing > 0 then
    parsed @ List.init missing (fun _ -> Error "connection closed early")
  else parsed

let one ~socket command =
  match call ~socket [ command ] with
  | [ r ] -> r
  | _ -> Error "expected exactly one response"

let submit ~socket ?(id = 0) ?deadline_ms request =
  one ~socket (Protocol.Simulate { id; deadline_ms; request })

let stats ~socket =
  match one ~socket Protocol.Stats with
  | Ok (Protocol.Stats_reply s) -> Ok s
  | Ok _ -> Error "unexpected response to stats"
  | Error e -> Error e

let metrics ~socket =
  match one ~socket Protocol.Metrics with
  | Ok (Protocol.Metrics_reply text) -> Ok text
  | Ok _ -> Error "unexpected response to metrics"
  | Error e -> Error e

let shutdown ~socket =
  match one ~socket Protocol.Shutdown with
  | Ok Protocol.Bye -> Ok ()
  | Ok _ -> Error "unexpected response to shutdown"
  | Error e -> Error e
