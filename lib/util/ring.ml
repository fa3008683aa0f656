(* A circular buffer whose capacity is a power of two, so a logical
   index maps to a slot with one mask. Ints only: no write barrier. *)

type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0
let slot q i = (q.head + i) land (Array.length q.buf - 1)

let get q i =
  if i < 0 || i >= q.len then invalid_arg "Ring.get: index out of bounds";
  q.buf.(slot q i)

let grow q =
  let cap = Array.length q.buf in
  let b = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
  for i = 0 to q.len - 1 do
    b.(i) <- q.buf.(slot q i)
  done;
  q.buf <- b;
  q.head <- 0

let push_back q x =
  if q.len = Array.length q.buf then grow q;
  q.buf.(slot q q.len) <- x;
  q.len <- q.len + 1

let push_front q x =
  if q.len = Array.length q.buf then grow q;
  q.head <- slot q (-1);
  q.buf.(q.head) <- x;
  q.len <- q.len + 1

let front q =
  if q.len = 0 then invalid_arg "Ring.front: empty queue";
  q.buf.(q.head)

let pop_front q =
  let x = front q in
  q.head <- slot q 1;
  q.len <- q.len - 1;
  x

let rec index_of q x i =
  if i >= q.len then -1
  else if q.buf.(slot q i) = x then i
  else index_of q x (i + 1)

let remove q x =
  let i = index_of q x 0 in
  i >= 0
  && begin
    for k = i to q.len - 2 do
      q.buf.(slot q k) <- q.buf.(slot q (k + 1))
    done;
    q.len <- q.len - 1;
    true
  end
