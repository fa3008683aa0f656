(* Statistics of the serving benchmark, kept apart from the harness so
   the percentile rule, the slot-boundary detection and the ratio bases
   are unit-tested on their own (perfbench/test). Times are integer
   nanoseconds throughout: no boxing on the measured path. *)

(* --- growable int buffer -------------------------------------------------- *)

type ivec = { mutable data : int array; mutable len : int }

let ivec () = { data = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let length v = v.len
let get v i = v.data.(i)
let to_array v = Array.sub v.data 0 v.len
let sum v = Array.fold_left ( + ) 0 (to_array v)

(* --- percentiles ------------------------------------------------------------ *)

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it. [rank n p] is its 1-based position in sorted order. *)
let rank n p =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9))))

let beyond n p = n - rank n p

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(rank n p - 1)

let sorted_floats a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a = percentile (sorted_floats a) 50.

(* The reporting rule: a timing's tail is the highest percentile of the
   ladder that still has at least [min_beyond] samples above it, so a
   tail figure is never one lucky or unlucky sample. *)
let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let max_percentile ?(min_beyond = 10) n =
  List.find_opt (fun p -> n > 0 && beyond n p >= min_beyond) ladder

(* --- slot boundaries ----------------------------------------------------- *)

(* Host time to consume one trace slot: from the first feed of slot T to
   the first feed of the next slot that has events. Slots without events
   have no feed, so the gap they leave is charged to the slot before
   them — the serving loop advances over them in the same barrier. The
   last slot has no successor and yields no sample. *)
type slot_clock = {
  mutable slot : int;
  mutable since : int;
  mutable started : bool;
  durations : ivec;
}

let slot_clock () =
  { slot = min_int; since = 0; started = false; durations = ivec () }

(* Call before feeding an event of [slot] at time [now]. Returns [true]
   when the event opens a new slot after an earlier one — exactly the
   feeds on which the serving loop flushes the buffered slot. *)
let tick c ~slot ~now =
  if not c.started then begin
    c.started <- true;
    c.slot <- slot;
    c.since <- now;
    false
  end
  else if slot = c.slot then false
  else begin
    push c.durations (now - c.since);
    c.slot <- slot;
    c.since <- now;
    true
  end

(* --- ratios, each with its base ------------------------------------------- *)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Arrivals the system failed to serve, over arrivals. Cancels are
   client withdrawals, not failures, and are left out of the numerator. *)
let refused_ratio ~shed ~expired ~given_up ~left_pending ~arrivals =
  ratio (shed + expired + given_up + left_pending) arrivals

(* Borrow probes that found a donor, over probe rounds: every arrival
   whose home shard had no free port probes every other shard once, and
   either borrows or starves. *)
let borrow_yield ~borrows ~starved = ratio borrows (borrows + starved)

(* Share of the serve phase spent in bare pool barriers: one empty
   round-trip time per barrier the serving loop ran. *)
let barrier_share ~barrier_ns ~barriers ~serve_ns =
  if serve_ns <= 0 then 0.
  else float_of_int barrier_ns *. float_of_int barriers /. float_of_int serve_ns

(* The serving loop runs one pool barrier per distinct event slot (the
   flush that advances the shards; [Serve.drain] flushes the last slot)
   and [Serve.drain] one more to drain them. *)
let barriers ~distinct_slots = if distinct_slots = 0 then 1 else distinct_slots + 1

(* Largest over mean: the straggler a slot barrier waits for. *)
let imbalance a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let total = Array.fold_left ( + ) 0 a in
    if total = 0 then 1.
    else
      float_of_int (Array.fold_left max min_int a)
      /. (float_of_int total /. float_of_int n)
