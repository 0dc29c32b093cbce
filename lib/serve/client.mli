(** Blocking client for the simulation service.

    One call = one connection = one batch: write every command line,
    shut down the write side, read one response line per command. *)

val call_lines : ?timeout_s:float -> socket:string -> string list -> string list
(** Raw exchange. Raises [Unix.Unix_error] if the socket is absent or
    refuses (e.g. no server running). [timeout_s] bounds each send and
    each wait for reply bytes: a server silent for that long raises
    [Failure "no reply from SOCKET within T s"]. Without it the client
    waits as long as the server takes. *)

val call :
  ?timeout_s:float ->
  socket:string ->
  Protocol.command list ->
  (Protocol.response, string) result list
(** {!call_lines} plus per-line response parsing; result order matches
    command order. *)

val submit :
  socket:string ->
  ?id:int ->
  ?deadline_ms:float ->
  Request.t ->
  (Protocol.response, string) result
(** Submit a single simulation request. *)

val stats : socket:string -> (Clusteer_obs.Json.t, string) result
(** Fetch the server's counter-registry snapshot. *)

val metrics : socket:string -> (string, string) result
(** Scrape the server's Prometheus-style exposition text (the
    [metrics] command). *)

val shutdown : socket:string -> (unit, string) result
(** Ask the server to stop after this connection. *)
