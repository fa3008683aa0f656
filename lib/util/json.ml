type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------

   Straight into one buffer, with nothing allocated per value: a string
   with nothing to escape is copied whole, an integral number's digits
   are written in place, and lists are walked without a closure. *)

let hex_digits = "0123456789abcdef"

let add_escape b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\t' -> Buffer.add_string b "\\t"
  | '\r' -> Buffer.add_string b "\\r"
  | c ->
    (* Any other control character, as \u00XX in lowercase hex. *)
    Buffer.add_string b "\\u00";
    Buffer.add_char b hex_digits.[Char.code c lsr 4];
    Buffer.add_char b hex_digits.[Char.code c land 15]

(* Copies s.[start .. i-1] verbatim when an escape or the end is
   reached. *)
let rec add_escaped b s start i n =
  if i >= n then Buffer.add_substring b s start (i - start)
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s start (i - start);
      add_escape b c;
      add_escaped b s (i + 1) (i + 1) n
    end
    else add_escaped b s start (i + 1) n

let escape_string b s =
  Buffer.add_char b '"';
  add_escaped b s 0 0 (String.length s);
  Buffer.add_char b '"'

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_num b x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> Buffer.add_string b "null"
  | _ ->
    if Float.is_integer x && Float.abs x < 1e15 then begin
      (* What "%.0f" prints, without the format interpreter: the value
         is integral and below 2^53, so int_of_float is exact. *)
      if Float.sign_bit x then Buffer.add_char b '-';
      add_digits b (Int.abs (int_of_float x))
    end
    else Buffer.add_string b (Printf.sprintf "%.17g" x)

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num x -> add_num b x
  | Str s -> escape_string b s
  | Arr vs ->
    Buffer.add_char b '[';
    add_elements b true vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    add_fields b true fields;
    Buffer.add_char b '}'

and add_elements b first = function
  | [] -> ()
  | v :: vs ->
    if not first then Buffer.add_char b ',';
    add_value b v;
    add_elements b false vs

and add_fields b first = function
  | [] -> ()
  | (k, v) :: fields ->
    if not first then Buffer.add_char b ',';
    escape_string b k;
    Buffer.add_char b ':';
    add_value b v;
    add_fields b false fields

let to_string v =
  let b = Buffer.create 256 in
  add_value b v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* UTF-8-encode one code point (surrogate pairs already combined). *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let cp = hex4 () in
            let cp =
              (* high surrogate: a low surrogate must follow *)
              if cp >= 0xd800 && cp <= 0xdbff then begin
                if
                  !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xdc00 || lo > 0xdfff then fail "bad surrogate pair";
                  0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                end
                else fail "unpaired surrogate"
              end
              else cp
            in
            add_utf8 b cp
          | c -> fail (Printf.sprintf "bad escape \\%c" c)));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259 number grammar: an optional minus, an integer part that is
     "0" or starts with a nonzero digit, then optional fraction and
     exponent parts — stricter than [float_of_string], which also takes
     "+1", "1.", ".5" and leading zeros. *)
  let valid_number t =
    let l = String.length t in
    let i = ref (if l > 0 && t.[0] = '-' then 1 else 0) in
    let digits () =
      let start = !i in
      while !i < l && t.[!i] >= '0' && t.[!i] <= '9' do
        incr i
      done;
      !i > start
    in
    let int_ok =
      if !i < l && t.[!i] = '0' then begin
        incr i;
        (* a leading zero must stand alone *)
        not (!i < l && t.[!i] >= '0' && t.[!i] <= '9')
      end
      else digits ()
    in
    int_ok
    && (if !i < l && t.[!i] = '.' then begin
          incr i;
          digits ()
        end
        else true)
    && (if !i < l && (t.[!i] = 'e' || t.[!i] = 'E') then begin
          incr i;
          if !i < l && (t.[!i] = '+' || t.[!i] = '-') then incr i;
          digits ()
        end
        else true)
    && !i = l
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    let t = String.sub s start (!pos - start) in
    if not (valid_number t) then fail (Printf.sprintf "bad number %S" t);
    match float_of_string_opt t with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "offset %d: trailing input" !pos)
    else Ok v
  with Parse_error (p, msg) -> Error (Printf.sprintf "offset %d: %s" p msg)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y ->
    List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         x y
  | _ -> false

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_num = function Num x -> Some x | _ -> None

(* Every integer of magnitude <= 2^53 is an exact double; past it a
   number may stand for several integers, and [int_of_float] beyond
   [max_int] is unspecified. *)
let max_exact_int = 0x1p53

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= max_exact_int ->
    Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_obj = function Obj f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let int n = Num (float_of_int n)

module Decode = struct
  exception Error of { path : string; msg : string }

  let fail fmt = Printf.ksprintf (fun msg -> raise (Error { path = ""; msg })) fmt

  (* Re-raises an error from below [seg] with [seg] prefixed to its
     path: a field name joins with '.', an index does not. *)
  let reraise seg path msg =
    let path =
      if path = "" then seg
      else if path.[0] = '[' then seg ^ path
      else seg ^ "." ^ path
    in
    raise (Error { path; msg })

  let at k d v = try d v with Error { path; msg } -> reraise k path msg

  let int v =
    match to_int v with
    | Some n -> n
    | None -> fail "not an integer within +/-2^53"

  let index n v =
    let i = int v in
    if i < 0 || i >= n then fail "%d is outside [0, %d)" i n;
    i

  let num v = match v with Num x -> x | _ -> fail "not a number"
  let str v = match v with Str s -> s | _ -> fail "not a string"
  let bool v = match v with Bool b -> b | _ -> fail "not a boolean"

  let list d v =
    match v with
    | Arr l -> (
      let i = ref 0 in
      try
        List.map
          (fun x ->
            let y = d x in
            incr i;
            y)
          l
      with Error { path; msg } -> reraise (Printf.sprintf "[%d]" !i) path msg)
    | _ -> fail "not an array"

  let assoc d v =
    match v with
    | Obj fields -> List.map (fun (k, x) -> (k, at k d x)) fields
    | _ -> fail "not an object"

  let given k v =
    match v with
    | Obj fields -> (
      match List.assoc_opt k fields with None | Some Null -> None | x -> x)
    | _ -> fail "not an object"

  let field k d v =
    match given k v with
    | Some x -> at k d x
    | None -> fail "missing field %S" k

  let opt k d v = match given k v with Some x -> Some (at k d x) | None -> None

  let ok = function Ok x -> x | Stdlib.Error m -> fail "%s" m

  let run ~what f =
    match f () with
    | x -> Ok x
    | exception Error { path = ""; msg } -> Stdlib.Error (what ^ ": " ^ msg)
    | exception Error { path; msg } ->
      Stdlib.Error (what ^ ": " ^ path ^ ": " ^ msg)
end
