module Instr = Eof_rtos.Instr

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Site assignments (local indices within this module's block). *)
let s_parse_entry = 0

let s_dispatch = 1

let s_lit_null = 2

let s_lit_true = 3

let s_lit_false = 4

let s_num_sign = 5

let s_num_digits = 6

let s_num_frac = 7

let s_num_exp = 8

let s_str_start = 9

let s_str_escape = 10

let s_str_unicode = 11

let s_str_len = 12

let s_arr_start = 13

let s_arr_count = 14

let s_arr_sep = 15

let s_obj_start = 16

let s_obj_key = 17

let s_obj_count = 18

let s_ws = 19

let s_err = 20

let s_trailing = 21

let s_parse_depth = 22

let s_enc_entry = 24

let s_enc_null = 25

let s_enc_bool = 26

let s_enc_num = 27

let s_enc_str = 28

let s_enc_str_escape = 29

let s_enc_arr = 30

let s_enc_obj = 31

let s_enc_depth = 32

let site_count = 36

exception Parse_error of string

type parser_state = { instr : Instr.t; input : string; mutable pos : int }

let fail p msg =
  Instr.cmp_i p.instr s_err p.pos (String.length p.input);
  raise (Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg))

let peek p = if p.pos < String.length p.input then Some p.input.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  let start = p.pos in
  let rec go () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      go ()
    | _ -> ()
  in
  go ();
  if p.pos > start then Instr.edge p.instr s_ws

let expect p c =
  match peek p with
  | Some x when x = c -> advance p
  | Some x -> fail p (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail p (Printf.sprintf "expected %c, found end of input" c)

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.input && String.sub p.input p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "bad literal (expected %s)" word)

let parse_digits p =
  let start = p.pos in
  let rec go () =
    match peek p with
    | Some ('0' .. '9') ->
      advance p;
      go ()
    | _ -> ()
  in
  go ();
  if p.pos = start then fail p "expected digits";
  p.pos - start

let parse_number p =
  let start = p.pos in
  (match peek p with
   | Some '-' ->
     Instr.cmp_i p.instr s_num_sign 1 0;
     advance p
   | _ -> Instr.cmp_i p.instr s_num_sign 0 0);
  let int_digits = parse_digits p in
  Instr.cmp_i p.instr s_num_digits int_digits 0;
  (match peek p with
   | Some '.' ->
     advance p;
     let frac = parse_digits p in
     Instr.cmp_i p.instr s_num_frac frac 0
   | _ -> ());
  (match peek p with
   | Some ('e' | 'E') ->
     advance p;
     (match peek p with
      | Some ('+' | '-') -> advance p
      | _ -> ());
     let e = parse_digits p in
     Instr.cmp_i p.instr s_num_exp e 0
   | _ -> ());
  let text = String.sub p.input start (p.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail p (Printf.sprintf "unparseable number %S" text)

let hex_digit p =
  match peek p with
  | Some c ->
    (match Eof_util.Hex.to_nibble c with
     | Some v ->
       advance p;
       v
     | None -> fail p "bad \\u escape digit")
  | None -> fail p "truncated \\u escape"

let utf8_of_code buf code =
  (* Standard UTF-8 encoding of a BMP code point. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string p =
  Instr.edge p.instr s_str_start;
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' ->
      advance p;
      Buffer.contents buf
    | Some '\\' ->
      advance p;
      (match peek p with
       | None -> fail p "truncated escape"
       | Some c ->
         Instr.cmp_i p.instr s_str_escape (Char.code c) 0;
         advance p;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            Instr.edge p.instr s_str_unicode;
            let h1 = hex_digit p in
            let h2 = hex_digit p in
            let h3 = hex_digit p in
            let h4 = hex_digit p in
            utf8_of_code buf ((h1 lsl 12) lor (h2 lsl 8) lor (h3 lsl 4) lor h4)
          | c -> fail p (Printf.sprintf "bad escape \\%c" c));
         go ())
    | Some c when Char.code c < 0x20 -> fail p "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance p;
      go ()
  in
  let s = go () in
  Instr.cmp_i p.instr s_str_len (String.length s) 0;
  s

let rec parse_value ?(depth = 0) p =
  Instr.cmp_i p.instr s_parse_depth depth 0;
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some c ->
    (* A real parser dispatches on a handful of character classes, not
       on 256 distinct bytes. *)
    let char_class =
      match c with
      | 'n' -> 1
      | 't' -> 2
      | 'f' -> 3
      | '-' | '0' .. '9' -> 4
      | '"' -> 5
      | '[' -> 6
      | '{' -> 7
      | _ -> 8
    in
    Instr.cmp_i p.instr s_dispatch char_class 0;
    (match c with
     | 'n' ->
       Instr.edge p.instr s_lit_null;
       literal p "null" Null
     | 't' ->
       Instr.edge p.instr s_lit_true;
       literal p "true" (Bool true)
     | 'f' ->
       Instr.edge p.instr s_lit_false;
       literal p "false" (Bool false)
     | '-' | '0' .. '9' -> parse_number p
     | '"' -> Str (parse_string p)
     | '[' -> parse_array ~depth p
     | '{' -> parse_object ~depth p
     | c -> fail p (Printf.sprintf "unexpected character %c" c))

and parse_array ~depth p =
  Instr.edge p.instr s_arr_start;
  expect p '[';
  skip_ws p;
  match peek p with
  | Some ']' ->
    advance p;
    Instr.cmp_i p.instr s_arr_count 0 0;
    Arr []
  | _ ->
    let rec go acc =
      let v = parse_value ~depth:(depth + 1) p in
      skip_ws p;
      match peek p with
      | Some ',' ->
        Instr.edge p.instr s_arr_sep;
        advance p;
        go (v :: acc)
      | Some ']' ->
        advance p;
        List.rev (v :: acc)
      | _ -> fail p "expected , or ] in array"
    in
    let items = go [] in
    Instr.cmp_i p.instr s_arr_count (List.length items) 0;
    Arr items

and parse_object ~depth p =
  Instr.edge p.instr s_obj_start;
  expect p '{';
  skip_ws p;
  match peek p with
  | Some '}' ->
    advance p;
    Instr.cmp_i p.instr s_obj_count 0 0;
    Obj []
  | _ ->
    let rec go acc =
      skip_ws p;
      Instr.edge p.instr s_obj_key;
      let key = parse_string p in
      skip_ws p;
      expect p ':';
      let v = parse_value ~depth:(depth + 1) p in
      skip_ws p;
      match peek p with
      | Some ',' ->
        advance p;
        go ((key, v) :: acc)
      | Some '}' ->
        advance p;
        List.rev ((key, v) :: acc)
      | _ -> fail p "expected , or } in object"
    in
    let members = go [] in
    Instr.cmp_i p.instr s_obj_count (List.length members) 0;
    Obj members

let parse ~instr input =
  let p = { instr; input; pos = 0 } in
  Instr.cmp_i instr s_parse_entry (String.length input) 0;
  match parse_value p with
  | v ->
    skip_ws p;
    if p.pos <> String.length input then begin
      Instr.edge instr s_trailing;
      Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
    end
    else Ok v
  | exception Parse_error msg -> Error msg

let escape_string_into instr buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Instr.cmp_i instr s_enc_str_escape (Char.code c) 0;
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      | '\n' ->
        Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Instr.cmp_i instr s_enc_str_escape (Char.code c) 0;
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let format_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

exception Too_deep

let encode ~instr ?(max_depth = 16) v =
  let buf = Buffer.create 64 in
  let rec go depth v =
    Instr.cmp_i instr s_enc_depth depth max_depth;
    if depth > max_depth then raise Too_deep;
    match v with
    | Null ->
      Instr.edge instr s_enc_null;
      Buffer.add_string buf "null"
    | Bool b ->
      Instr.cmp_i instr s_enc_bool (if b then 1 else 0) 0;
      Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      Instr.edge instr s_enc_num;
      Buffer.add_string buf (format_num f)
    | Str s ->
      Instr.edge instr s_enc_str;
      escape_string_into instr buf s
    | Arr items ->
      Instr.cmp_i instr s_enc_arr (List.length items) 0;
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go (depth + 1) item)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Instr.cmp_i instr s_enc_obj (List.length members) 0;
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string_into instr buf k;
          Buffer.add_char buf ':';
          go (depth + 1) item)
        members;
      Buffer.add_char buf '}'
  in
  Instr.edge instr s_enc_entry;
  match go 0 v with () -> Ok (Buffer.contents buf) | exception Too_deep -> Error `Too_deep

let rec depth = function
  | Null | Bool _ | Num _ | Str _ -> 0
  | Arr items -> 1 + List.fold_left (fun acc v -> max acc (depth v)) 0 items
  | Obj members -> 1 + List.fold_left (fun acc (_, v) -> max acc (depth v)) 0 members
