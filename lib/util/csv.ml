let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let line fields = String.concat "," (List.map escape fields)

let write ~path ~header rows =
  Fs.write_atomic ~path (fun oc ->
      List.iter
        (fun row ->
          output_string oc (line row);
          output_char oc '\n')
        (header :: rows))
