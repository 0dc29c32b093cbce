(* Run ledger: every experiment and serve batch leaves an on-disk
   artifact.

   Layout under the ledger directory:

     index.jsonl      one summary line per run, append-only
     run-000001.json  full entry: config, counters, GC, timings

   Entries are written tmp-then-rename so a crash never leaves a
   half-written run file, and the index is only appended after the
   run file is durable. Loading tolerates a torn final index line
   (crash mid-append) by skipping lines that do not parse; the next
   run id is recovered from both the index and the run files on disk,
   so a run whose index line was lost is never overwritten. *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  minor_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    (* [quick_stat]'s minor_words only advances at minor collections in
       native code; [Gc.minor_words] reads the allocation pointer. *)
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
    minor_collections = s.Gc.minor_collections;
  }

let gc_sub a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    major_collections = a.major_collections - b.major_collections;
    minor_collections = a.minor_collections - b.minor_collections;
  }

let minor_words_per_uop gc ~uops =
  if uops > 0 then gc.minor_words /. float_of_int uops else 0.0

let gc_json ?(uops = 0) gc =
  Json.Obj
    [
      ("minor_words", Json.Float gc.minor_words);
      ("promoted_words", Json.Float gc.promoted_words);
      ("major_collections", Json.Int gc.major_collections);
      ("minor_collections", Json.Int gc.minor_collections);
      ( "engine_minor_words_per_uop",
        Json.Float (minor_words_per_uop gc ~uops) );
    ]

type summary = {
  id : int;
  kind : string;
  label : string;
  started : float;
  wall_s : float;
  outcome : string;
  uops : int;
  minor_words_per_uop : float;
  file : string;
}

type t = { dir : string; mutable next_id : int; mutable summaries : summary list }

let index_path dir = Filename.concat dir "index.jsonl"
let run_file id = Printf.sprintf "run-%06d.json" id
let run_path dir id = Filename.concat dir (run_file id)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
    end
  in
  go dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let summary_of_json j =
  match
    ( Option.bind (Json.member "id" j) Json.to_int,
      Option.bind (Json.member "kind" j) Json.to_str,
      Option.bind (Json.member "label" j) Json.to_str,
      Option.bind (Json.member "outcome" j) Json.to_str )
  with
  | Some id, Some kind, Some label, Some outcome ->
      let num name d =
        match Option.bind (Json.member name j) Json.to_float with
        | Some v -> v
        | None -> d
      in
      let int name d =
        match Option.bind (Json.member name j) Json.to_int with
        | Some v -> v
        | None -> d
      in
      Some
        {
          id;
          kind;
          label;
          started = num "started" 0.0;
          wall_s = num "wall_s" 0.0;
          outcome;
          uops = int "uops" 0;
          minor_words_per_uop = num "minor_words_per_uop" 0.0;
          file = run_file id;
        }
  | _ -> None

let summary_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("kind", Json.Str s.kind);
      ("label", Json.Str s.label);
      ("started", Json.Float s.started);
      ("wall_s", Json.Float s.wall_s);
      ("outcome", Json.Str s.outcome);
      ("uops", Json.Int s.uops);
      ("minor_words_per_uop", Json.Float s.minor_words_per_uop);
      ("file", Json.Str s.file);
    ]

(* Crash recovery: a torn or corrupt index line is skipped, and ids
   present only as run files (index append lost) still advance
   [next_id] so they are never overwritten. *)
let load_index dir =
  let summaries = ref [] in
  let path = index_path dir in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match Json.of_string line with
              | Ok j -> (
                  match summary_of_json j with
                  | Some s -> summaries := s :: !summaries
                  | None -> ())
              | Error _ -> ()
          done
        with End_of_file -> ())
  end;
  List.rev !summaries

let file_ids dir =
  Array.fold_left
    (fun acc name ->
      match Scanf.sscanf_opt name "run-%06d.json%!" (fun id -> id) with
      | Some id -> id :: acc
      | None -> acc)
    []
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ~dir =
  mkdir_p dir;
  let summaries = load_index dir in
  let max_id =
    List.fold_left max 0
      (List.map (fun s -> s.id) summaries @ file_ids dir)
  in
  { dir; next_id = max_id + 1; summaries }

let dir t = t.dir

let write_atomic path json =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Json.output oc json;
      output_char oc '\n');
  Sys.rename tmp path

let build_json =
  Json.Obj
    [
      ("profile", Json.Str Build_info.profile);
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let append t ~kind ~label ?request_hash ?config ~started ~wall_s ~outcome
    ~uops ~gc counters =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    {
      id;
      kind;
      label;
      started;
      wall_s;
      outcome;
      uops;
      minor_words_per_uop = minor_words_per_uop gc ~uops;
      file = run_file id;
    }
  in
  let entry =
    Json.Obj
      (("id", Json.Int id)
       :: ("kind", Json.Str kind)
       :: ("label", Json.Str label)
       :: (match request_hash with
          | Some h -> [ ("request_hash", Json.Str h) ]
          | None -> [])
      @ (match config with Some c -> [ ("config", c) ] | None -> [])
      @ [
          ("started", Json.Float started);
          ("wall_s", Json.Float wall_s);
          ("outcome", Json.Str outcome);
          ("uops", Json.Int uops);
          ("build", build_json);
          ("gc", gc_json ~uops gc);
          ("counters", Counters.to_json counters);
        ])
  in
  write_atomic (run_path t.dir id) entry;
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (index_path t.dir)
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Json.output oc (summary_json s);
      output_char oc '\n');
  t.summaries <- t.summaries @ [ s ];
  s

let list t = t.summaries

let load t id =
  let path = run_path t.dir id in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string (String.trim text) with
    | Ok j -> Some j
    | Error _ -> None
  end

let prune t ~keep =
  let keep = max 0 keep in
  let n = List.length t.summaries in
  if n <= keep then 0
  else begin
    let drop = n - keep in
    let rec split i = function
      | rest when i = 0 -> ([], rest)
      | [] -> ([], [])
      | s :: rest ->
          let old, kept = split (i - 1) rest in
          (s :: old, kept)
    in
    let old, kept = split drop t.summaries in
    List.iter
      (fun s ->
        let p = run_path t.dir s.id in
        if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
      old;
    (* Rewrite the index atomically so a crash mid-prune leaves either
       the old or the new index, never a truncated one. *)
    let tmp = index_path t.dir ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun s ->
            Json.output oc (summary_json s);
            output_char oc '\n')
          kept);
    Sys.rename tmp (index_path t.dir);
    t.summaries <- kept;
    drop
  end
