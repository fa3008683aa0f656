(* Three parallel int arrays instead of an array of boxed (key, value)
   pairs: a sift moves ints, so no write barrier and no allocation;
   only [grow] allocates. Sifts carry the moving entry in locals and
   shift the others over the hole. *)

type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
}

let create () = { time = [||]; seq = [||]; value = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.time in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.time <- extend h.time;
  h.seq <- extend h.seq;
  h.value <- extend h.value

let move h ~src ~dst =
  h.time.(dst) <- h.time.(src);
  h.seq.(dst) <- h.seq.(src);
  h.value.(dst) <- h.value.(src)

(* Whether slot [i] sorts before the key (time, seq). *)
let before h i time seq =
  let ti = h.time.(i) in
  ti < time || (ti = time && h.seq.(i) < seq)

let rec sift_up h i time seq =
  if i = 0 then 0
  else
    let p = (i - 1) / 2 in
    if before h p time seq then i
    else begin
      move h ~src:p ~dst:i;
      sift_up h p time seq
    end

let rec sift_down h i time seq =
  let l = (2 * i) + 1 in
  if l >= h.size then i
  else
    let r = l + 1 in
    let c = if r < h.size && before h r h.time.(l) h.seq.(l) then r else l in
    if before h c time seq then begin
      move h ~src:c ~dst:i;
      sift_down h c time seq
    end
    else i

let add h ~time ~seq v =
  if h.size = Array.length h.time then grow h;
  let i = sift_up h h.size time seq in
  h.size <- h.size + 1;
  h.time.(i) <- time;
  h.seq.(i) <- seq;
  h.value.(i) <- v

let check_nonempty h what =
  if h.size = 0 then invalid_arg ("Event_heap." ^ what ^ ": empty heap")

let min_time h = check_nonempty h "min_time"; h.time.(0)
let min_seq h = check_nonempty h "min_seq"; h.seq.(0)

let pop h =
  check_nonempty h "pop";
  let v = h.value.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let time = h.time.(n) and seq = h.seq.(n) and value = h.value.(n) in
    let i = sift_down h 0 time seq in
    h.time.(i) <- time;
    h.seq.(i) <- seq;
    h.value.(i) <- value
  end;
  v

let compare_slots h i j =
  let c = Int.compare h.time.(i) h.time.(j) in
  if c <> 0 then c
  else
    let c = Int.compare h.seq.(i) h.seq.(j) in
    if c <> 0 then c else Int.compare h.value.(i) h.value.(j)

(* Sorts slot numbers in place rather than a list of tuples: a
   checkpoint lists every entry, and a list sort allocates a fresh list
   per merge level. Folding from the last entry lets a caller cons its
   own values in order, with no tuple or list in between. *)
let fold_sorted h f init =
  let order = Array.init h.size Fun.id in
  Array.sort (compare_slots h) order;
  let rec fold k acc =
    if k < 0 then acc
    else
      let i = order.(k) in
      fold (k - 1) (f ~time:h.time.(i) ~seq:h.seq.(i) h.value.(i) acc)
  in
  fold (h.size - 1) init
