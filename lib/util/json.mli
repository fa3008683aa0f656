(** Minimal JSON value type, parser and printer.

    The repository emits JSON in several places (workload traces, the
    Chrome trace exporter, the metrics registry, [BENCH_*.json] perf
    reports) and, since PR 6, also has to {e read} it back: the perf
    comparator parses committed baselines, and the exporter tests parse
    the emitted documents instead of string-matching them. No JSON
    library is vendored, so this is a small recursive-descent
    implementation of exactly RFC 8259: objects, arrays, strings with
    escapes (including [\uXXXX], encoded to UTF-8), numbers, booleans
    and null.

    Numbers are held as [float]; integers up to 2{^53} round-trip
    exactly, and the printer renders integral values without a decimal
    point and everything else with 17 significant digits, so
    [parse (to_string v)] reproduces [v] for any finite value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer, as the checkpoint, config and report writers
    emit one. Round-trips through {!Decode.int} for magnitudes up to
    2{^53}. The values of 0 .. 4095 are preallocated and shared, so a
    checkpoint's counts, ports and slots cost no allocation. *)

val parse : string -> (t, string) result
(** Parses one JSON document (leading/trailing whitespace allowed).
    Errors carry a character offset and a short description. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite numbers
    render as [null], as everywhere else in the repository. Prints into
    bytes each domain keeps from call to call, so a large document
    costs only its final copy; safe on several domains at once and when
    re-entered (a nested call prints into bytes of its own). *)

val equal : t -> t -> bool
(** Structural equality; object fields compare in order. *)

(** {1 Accessors}

    Total accessors returning [option]; they make the comparator and
    the tests read like a schema instead of a pattern-match pyramid. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val to_num : t -> float option
val to_int : t -> int option
(** [Some n] for an integral number of magnitude at most 2{^53}, where
    every integer is exact; [None] for anything else, so a document
    never yields an int it does not name. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val to_bool : t -> bool option

(** {1 Decoding}

    One vocabulary for every document the repository reads back
    (checkpoints, [Engine.Config], the guard's policy and flap state,
    BENCH reports), under one rule: an absent field and a [null] field
    both mean "not given" (an error for {!Decode.field}, [None] for
    {!Decode.opt}), and a field given with the wrong shape is an error,
    never read as absent. Decoders raise {!Decode.Error} and compose by
    application, as in [Decode.(field "heap" (list (field "t" int))) j];
    only {!Decode.run}, at the document's boundary, turns the exception
    into an [Error]. *)
module Decode : sig
  exception Error of { path : string; msg : string }
  (** [path] locates the offending value from the point {!run} was
      called, as fields joined by ['.'] and array indices in brackets
      (["heap[3].ev.proc"]); [""] for the document itself. *)

  val fail : ('a, unit, string, 'b) format4 -> 'a
  (** Raises {!Error} at the current value with the formatted message:
      how a decoder refuses a value it read. *)

  val int : t -> int
  (** An integral number of magnitude at most 2{^53} (see {!to_int}). *)

  val index : int -> t -> int
  (** [index n]: an {!int} in \[0, n): an element of an array of
      length [n]. *)

  val num : t -> float
  val str : t -> string
  val bool : t -> bool

  val list : (t -> 'a) -> t -> 'a list
  (** An array, each element decoded in order. *)

  val assoc : (t -> 'a) -> t -> (string * 'a) list
  (** An object, each field's value decoded, in document order. *)

  val field : string -> (t -> 'a) -> t -> 'a
  (** [field k d v]: the required field [k] of object [v], decoded by
      [d]. Absent or [null] is an error naming [k]. *)

  val opt : string -> (t -> 'a) -> t -> 'a option
  (** [opt k d v]: the optional field [k]; [None] when it is absent or
      [null], [Some (d x)] otherwise — a wrong shape is still an error. *)

  val ok : ('a, string) result -> 'a
  (** Lifts a [result] into the vocabulary: [Error m] raises {!Error}
      with [m], so a separately decodable document, such as a config
      embedded in a checkpoint, nests under the field that holds it. *)

  val run : what:string -> (unit -> 'a) -> ('a, string) result
  (** [run ~what f]: [Ok (f ())], or the {!Error} [f] raised as
      ["what: path: msg"] (["what: msg"] at the document itself). *)
end
