(** Binary min-heap of int payloads keyed by [(time, seq)] pairs, on
    three parallel int arrays.

    The online engine's event queue: [time] is the slot, [seq] a
    tie-breaking insertion counter, and the payload an encoded event.
    {!add}, {!pop} and the [min_*] reads allocate nothing once the
    arrays have grown to the queue's high-water mark (E34 asserts it),
    and a sift moves ints only, so it never goes through the write
    barrier. *)

type t

val create : unit -> t
(** An empty heap; storage grows on the first {!add}. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> time:int -> seq:int -> int -> unit
(** [add h ~time ~seq v] inserts payload [v] under key [(time, seq)].
    Keys are compared lexicographically; equal keys pop in an
    unspecified order. *)

val min_time : t -> int
val min_seq : t -> int
(** The key of the minimum entry. Raise [Invalid_argument] on an empty
    heap. *)

val pop : t -> int
(** Removes the minimum entry and returns its payload. Raises
    [Invalid_argument] on an empty heap. *)

val fold_sorted : t -> (time:int -> seq:int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_sorted h f init] folds [f ~time ~seq payload] over every entry
    from the last in pop order (ties by payload) to the first, leaving
    the heap unchanged: consing in [f] builds the entries in pop order.
    Allocates one int array of the heap's size; for checkpoints and
    tests. *)
