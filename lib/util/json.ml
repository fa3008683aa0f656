type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------

   Straight into bytes the printer grows itself, with nothing allocated
   per value. The write position is passed from call to call rather
   than kept in a mutable field, so it stays in a register instead of
   costing a store and a reload per byte; each value reserves the room
   it needs once, then writes unchecked. *)

type out = { mutable bytes : Bytes.t }

let grow o ~pos ~need =
  let len = ref (2 * Bytes.length o.bytes) in
  while pos + need > !len do len := 2 * !len done;
  let b = Bytes.create !len in
  Bytes.blit o.bytes 0 b 0 pos;
  o.bytes <- b

(* Room for [need] bytes at [pos]. *)
let reserve o ~pos ~need =
  if pos + need > Bytes.length o.bytes then grow o ~pos ~need

let put_char o pos c =
  reserve o ~pos ~need:1;
  Bytes.unsafe_set o.bytes pos c;
  pos + 1

let put_literal o pos s =
  let n = String.length s in
  reserve o ~pos ~need:n;
  Bytes.unsafe_blit_string s 0 o.bytes pos n;
  pos + n

let hex_digits = "0123456789abcdef"

let put_pair b pos c1 c2 =
  Bytes.unsafe_set b pos c1;
  Bytes.unsafe_set b (pos + 1) c2;
  pos + 2

(* [c] escaped at [pos], which has room for six bytes. *)
let put_escape b pos c =
  match c with
  | '"' -> put_pair b pos '\\' '"'
  | '\\' -> put_pair b pos '\\' '\\'
  | '\n' -> put_pair b pos '\\' 'n'
  | '\t' -> put_pair b pos '\\' 't'
  | '\r' -> put_pair b pos '\\' 'r'
  | c ->
    (* Any other control character, as \u00XX in lowercase hex. *)
    Bytes.unsafe_blit_string "\\u00" 0 b pos 4;
    Bytes.unsafe_set b (pos + 4) hex_digits.[Char.code c lsr 4];
    Bytes.unsafe_set b (pos + 5) hex_digits.[Char.code c land 15];
    pos + 6

(* A string with its quotes: room for it unescaped is reserved up front,
   and each escape reserves what it adds. *)
let put_string o pos s =
  let n = String.length s in
  reserve o ~pos ~need:(n + 2);
  Bytes.unsafe_set o.bytes pos '"';
  let p = ref (pos + 1) in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      (* six for the escape, then the rest and the closing quote *)
      reserve o ~pos:!p ~need:(6 + n - i);
      p := put_escape o.bytes !p c
    end
    else begin
      Bytes.unsafe_set o.bytes !p c;
      incr p
    end
  done;
  Bytes.unsafe_set o.bytes !p '"';
  !p + 1

let rec n_digits n = if n < 10 then 1 else 1 + n_digits (n / 10)

(* The digits of [n >= 0], the last one at [p]. *)
let rec put_digits b p n =
  Bytes.unsafe_set b p (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (p - 1) (n / 10)

let limit = 1_000_000_000_000_000

let put_num o pos x =
  let n = int_of_float x in
  if Float.of_int n = x && n > -limit && n < limit then begin
    (* What "%.0f" prints, without the format interpreter: [x] is
       integral and below 1e15 (NaN fails the test), so [n] is exact;
       -0 keeps its sign. *)
    reserve o ~pos ~need:16;
    let pos =
      if n < 0 || (n = 0 && 1. /. x < 0.) then begin
        Bytes.unsafe_set o.bytes pos '-';
        pos + 1
      end
      else pos
    in
    let m = abs n in
    let stop = pos + n_digits m in
    put_digits o.bytes (stop - 1) m;
    stop
  end
  else
    match Float.classify_float x with
    | FP_nan | FP_infinite -> put_literal o pos "null"
    | _ -> put_literal o pos (Printf.sprintf "%.17g" x)

let rec put o pos = function
  | Null -> put_literal o pos "null"
  | Bool x -> put_literal o pos (if x then "true" else "false")
  | Num x -> put_num o pos x
  | Str s -> put_string o pos s
  | Arr vs -> put_char o (put_elements o (put_char o pos '[') true vs) ']'
  | Obj fields -> put_char o (put_fields o (put_char o pos '{') true fields) '}'

and put_elements o pos first = function
  | [] -> pos
  | v :: vs ->
    let pos = if first then pos else put_char o pos ',' in
    put_elements o (put o pos v) false vs

and put_fields o pos first = function
  | [] -> pos
  | (k, v) :: fields ->
    let pos = if first then pos else put_char o pos ',' in
    let pos = put_char o (put_string o pos k) ':' in
    put_fields o (put o pos v) false fields

(* Each domain prints into bytes of its own, kept from call to call, so
   a 100 KB checkpoint costs its final copy and no doublings. The bytes
   are taken out of their slot while in use: a call that finds the slot
   empty (a finaliser printing in the middle of a print, say) prints
   into bytes of its own instead. Bytes grown past [keep_bytes] are
   given back at their initial size. *)
let keep_bytes = 1 lsl 20

let printer =
  Domain.DLS.new_key (fun () -> ref (Some { bytes = Bytes.create 4096 }))

let to_string v =
  let slot = Domain.DLS.get printer in
  match !slot with
  | None ->
    let o = { bytes = Bytes.create 256 } in
    Bytes.sub_string o.bytes 0 (put o 0 v)
  | Some o as kept ->
    slot := None;
    (match put o 0 v with
    | n ->
      let s = Bytes.sub_string o.bytes 0 n in
      if Bytes.length o.bytes > keep_bytes then o.bytes <- Bytes.create 4096;
      slot := kept;
      s
    | exception e ->
      slot := kept;
      raise e)

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

(* The values of 0 .. 4095, shared: most ints a checkpoint writes are
   small counts, ports and slots, and a [Num] costs 4 words (the block
   and its boxed float). Sharing is safe because [t] is immutable. *)
let small_ints = Array.init 4096 (fun n -> Num (float_of_int n))

let int n =
  if n >= 0 && n < Array.length small_ints then Array.unsafe_get small_ints n
  else Num (float_of_int n)

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
