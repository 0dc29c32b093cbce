let magic = "clusteer-annot 1"

let to_string (a : Annot.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "scheme %s\n" a.Annot.scheme);
  Buffer.add_string buf (Printf.sprintf "vcs %d\n" a.Annot.virtual_clusters);
  Buffer.add_string buf
    (Printf.sprintf "uops %d\n" (Array.length a.Annot.vc_of));
  let field v = if v < 0 then "-" else string_of_int v in
  Array.iteri
    (fun id vc ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %d %s\n" id (field vc)
           (if a.Annot.leader.(id) then 1 else 0)
           (field a.Annot.cluster_of.(id))))
    a.Annot.vc_of;
  Buffer.contents buf

let fail line msg = failwith (Printf.sprintf "Annot_io: line %d: %s" line msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  match lines with
  | header :: scheme_l :: vcs_l :: uops_l :: rest ->
      if String.trim header <> magic then fail 1 "bad magic";
      let scheme =
        match String.split_on_char ' ' scheme_l with
        | [ "scheme"; name ] -> name
        | _ -> fail 2 "expected 'scheme <name>'"
      in
      let int_field line_no key l =
        match String.split_on_char ' ' l with
        | [ k; v ] when k = key -> (
            match int_of_string_opt v with
            | Some i -> i
            | None -> fail line_no "not an integer")
        | _ -> fail line_no (Printf.sprintf "expected '%s <n>'" key)
      in
      let vcs = int_field 3 "vcs" vcs_l in
      let uops = int_field 4 "uops" uops_l in
      if uops < 0 || vcs < 0 then fail 3 "negative count";
      let annot =
        if vcs > 0 then
          Annot.create_virtual ~scheme ~virtual_clusters:vcs ~uop_count:uops
        else Annot.create_static ~scheme ~uop_count:uops
      in
      List.iteri
        (fun i line ->
          let line_no = i + 5 in
          let parse_opt v =
            if v = "-" then -1
            else
              match int_of_string_opt v with
              | Some x -> x
              | None -> fail line_no "not an integer"
          in
          match String.split_on_char ' ' line with
          | [ id; vc; leader; cluster ] ->
              let id = parse_opt id in
              if id < 0 || id >= uops then fail line_no "uop id out of range";
              annot.Annot.vc_of.(id) <- parse_opt vc;
              annot.Annot.cluster_of.(id) <- parse_opt cluster;
              annot.Annot.leader.(id) <-
                (match leader with
                | "0" -> false
                | "1" -> true
                | _ -> fail line_no "leader must be 0 or 1")
          | _ -> fail line_no "expected '<id> <vc|-> <0/1> <cluster|->'")
        rest;
      if List.length rest <> uops then
        failwith
          (Printf.sprintf "Annot_io: expected %d rows, found %d" uops
             (List.length rest));
      annot
  | _ -> failwith "Annot_io: truncated header"

let save ~path a =
  Clusteer_util.Fs.write_atomic ~path (fun oc -> output_string oc (to_string a))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
