type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_opt x = if Float.is_finite x then Float x else Null

let escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

let add_float buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> add_float buf x
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let rec pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> to_buffer buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          pretty buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

let parse_error pos msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

(* A plain recursive-descent parser over the string; [pos] is a cursor. *)
let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> parse_error !pos (Printf.sprintf "expected %c, found %c" c x)
    | None -> parse_error !pos (Printf.sprintf "expected %c, found end" c)
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      v
    end
    else parse_error !pos ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> parse_error !pos "invalid \\u escape"
  in
  let add_utf8 buf u =
    (* Encode one scalar value; unpaired surrogates degrade to U+FFFD. *)
    let u = if u >= 0xD800 && u <= 0xDFFF then 0xFFFD else u in
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
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then parse_error !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= len then parse_error !pos "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              let hex4 () =
                if !pos + 4 > len then parse_error !pos "truncated \\u escape";
                let u =
                  (hex_digit s.[!pos] lsl 12)
                  lor (hex_digit s.[!pos + 1] lsl 8)
                  lor (hex_digit s.[!pos + 2] lsl 4)
                  lor hex_digit s.[!pos + 3]
                in
                pos := !pos + 4;
                u
              in
              let u = hex4 () in
              (* A high surrogate followed by \uDC00..\uDFFF is one scalar. *)
              if
                u >= 0xD800 && u <= 0xDBFF
                && !pos + 6 <= len
                && s.[!pos] = '\\'
                && s.[!pos + 1] = 'u'
              then begin
                let save = !pos in
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  add_utf8 buf
                    (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                else begin
                  (* Not a low surrogate: emit U+FFFD, keep [lo] separate. *)
                  add_utf8 buf u;
                  pos := save
                end
              end
              else add_utf8 buf u
          | c -> parse_error !pos (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some x -> Float x
      | None -> parse_error start ("invalid number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          (* Integer literal too large for a native int: keep the value. *)
          match float_of_string_opt lit with
          | Some x -> Float x
          | None -> parse_error start ("invalid number " ^ lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (Stdlib.List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (Stdlib.List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error !pos (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then parse_error !pos "trailing content after value";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> Stdlib.List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

(* An integral float below 2^62 in magnitude converts without loss. *)
let to_int_opt = function
  | Int i -> Some i
  | Float x when Float.is_integer x && Float.abs x < 0x1p62 ->
      Some (int_of_float x)
  | _ -> None

(* --- typed fields ---------------------------------------------------- *)

let field what conv key v =
  match member key v with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some x -> (
      match conv x with
      | Some y -> Ok y
      | None -> Error (Printf.sprintf "field %S is not %s" key what))

let int_field = field "an integer" to_int_opt

let float_field =
  field "a number" (function Null -> Some Float.nan | x -> to_float_opt x)

let string_field = field "a string" to_string_opt
let bool_field = field "a boolean" to_bool_opt

let ints_field =
  field "a list of integers" (function
    | List xs when Stdlib.List.for_all (fun x -> to_int_opt x <> None) xs ->
        Some (Stdlib.List.filter_map to_int_opt xs)
    | _ -> None)

(* --- JSON Lines ------------------------------------------------------ *)

let fold_lines f init s =
  let rec go acc number = function
    | [] -> Ok acc
    | raw :: rest when String.trim raw = "" -> go acc (number + 1) rest
    | raw :: rest -> (
        match Result.bind (of_string raw) (f acc raw) with
        | Ok acc -> go acc (number + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" number e))
  in
  go init 1 (String.split_on_char '\n' s)
