(** Growable FIFO queue of ints on a circular buffer.

    The online engine keeps one per processor for its pending task ids,
    like the fixed per-port buffers of a router: push at the back on
    admission, at the front for a re-admitted fault victim, pop the head
    into a circuit, and withdraw one id on a cancel or an expiry. Every
    operation allocates nothing once the buffer has grown to the
    queue's high-water mark. *)

type t

val create : unit -> t
(** An empty queue; storage grows on the first push. *)

val length : t -> int
val is_empty : t -> bool

val push_back : t -> int -> unit
val push_front : t -> int -> unit

val front : t -> int
(** The head. Raises [Invalid_argument] on an empty queue. *)

val pop_front : t -> int
(** Removes and returns the head. Raises [Invalid_argument] on an empty
    queue. *)

val get : t -> int -> int
(** [get q i] is the [i]-th element from the head. Raises
    [Invalid_argument] unless [0 <= i < length q]. *)

val remove : t -> int -> bool
(** [remove q x] removes the first occurrence of [x], keeping the order
    of the rest, and says whether there was one. O(length). *)
