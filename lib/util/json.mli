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

val parse : string -> (t, string) result
(** Parses one JSON document (leading/trailing whitespace allowed).
    Errors carry a character offset and a short description. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite numbers
    render as [null], as everywhere else in the repository. *)

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
