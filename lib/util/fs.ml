let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let write_atomic ~path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    write oc;
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt
