(** Minimal JSON writer for the exporters (no parsing, no dependency).
    Printing is deterministic: floats use one fixed format (integral
    values print as integers, NaN/infinities as [null]) and object
    fields print in the supplied order — suitable for golden-file
    comparison. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
