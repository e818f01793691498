(* Path canonicalisation shared by every lint rule: undoing dune's
   module mangling, canonical Path.t spellings, whole-component
   suffix/prefix matching, and _build-to-repo file-name rewriting. *)

(* "Baselines__D2pl" -> ["Baselines"; "D2pl"]. *)
val split_mangled : string -> string list

(* Like [split_mangled], also dropping a leading "Dune__exe". *)
val canon_head : string -> string list

val plain_parts : Path.t -> string list
val plain_path : Path.t -> string

(* "Stdlib.Hashtbl.replace" -> "Hashtbl.replace". *)
val strip_stdlib : string -> string

(* Whole-component suffix match: "Ts.t" matches "Kernel.Ts.t" but not
   "Cuts.t". *)
val has_suffix : suffix:string -> string -> bool

(* Whole-component prefix match: "Random" matches "Random.int". *)
val has_prefix : prefix:string -> string -> bool

(* "_build/<context>/lib/x.ml" -> "lib/x.ml"; "./x.ml" -> "x.ml". *)
val norm_fname : string -> string

(* (1-based line, 0-based column) of a location's start. *)
val loc_pos : Location.t -> int * int
