(* Minimal JSON tree with a writer and a recursive-descent parser.

   The toolchain has no JSON library baked in, and the observability layer
   must both *emit* machine-readable artifacts (bench results, Chrome
   traces) and *read* them back (bench_diff, round-trip tests), so this
   module carries its own implementation.  It covers the full JSON grammar
   including string escapes and \uXXXX sequences (with surrogate pairs);
   non-finite floats are written as [null] since JSON has no encoding for
   them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- writing *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal form that round-trips the exact float. *)
let float_str f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write ~pretty ~indent buf v =
  let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | String s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (indent + 1);
          write ~pretty ~indent:(indent + 1) buf item)
        items;
      newline ();
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (indent + 1);
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf (if pretty then "\": " else "\":");
          write ~pretty ~indent:(indent + 1) buf item)
        fields;
      newline ();
      pad indent;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  write ~pretty ~indent:0 buf v;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file ?(pretty = true) path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ~pretty v))

(* ------------------------------------------------------------- parsing *)

exception Parse_error of int * string

type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected '%c', found '%c'" c c')
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let expect_word st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* Append a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid hex digit in \\u escape"
  in
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v =
    (digit st.src.[st.pos] lsl 12)
    lor (digit st.src.[st.pos + 1] lsl 8)
    lor (digit st.src.[st.pos + 2] lsl 4)
    lor digit st.src.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let u = hex4 st in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* High surrogate: must be followed by \uDC00-\uDFFF. *)
                  expect st '\\';
                  expect st 'u';
                  let lo = hex4 st in
                  if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate"
                  else add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if u >= 0xDC00 && u <= 0xDFFF then fail st "unpaired surrogate"
                else add_utf8 buf u
            | c -> fail st (Printf.sprintf "invalid escape '\\%c'" c)));
        go ()
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  let digits () =
    let d0 = st.pos in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      advance st
    done;
    if st.pos = d0 then fail st "malformed number"
  in
  digits ();
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}' in object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']' in array"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* ----------------------------------------------------------- accessors *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let mem_string key v = Option.bind (member key v) to_string_opt
let mem_int key v = Option.bind (member key v) to_int_opt
let mem_float key v = Option.bind (member key v) to_float_opt
