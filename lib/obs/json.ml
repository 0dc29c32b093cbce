type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- encoding ---------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no literal for nan or the infinities: they encode as null. *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* Keep a decimal point so the value parses back as a float. *)
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let output oc v = output_string oc (to_string v)

(* ---- parsing ----------------------------------------------------- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let parse_literal st lit value =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then
              error st "truncated \\u escape";
            let hex = String.sub st.src st.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> error st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            (* Encode the code point as UTF-8 (BMP only; surrogate
               pairs are left as two replacement-free code units). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> error st "bad escape")
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
  in
  if is_float then
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> Float f
    | Some _ -> error st "number out of range"
    | None -> error st "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> error st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin advance st; List [] end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin advance st; Obj [] end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---- access ------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let equal (a : t) (b : t) = a = b
