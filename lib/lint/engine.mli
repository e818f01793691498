(* Findings, and the waiver pass that turns one file's raw findings
   into what the linter reports: pragma waivers subtracted, unused and
   malformed pragmas reported. The analysis itself is Typed_engine. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : Rules.severity;
  message : string;
  chain : string list;
      (* evidence trail for interprocedural findings (R9, R12, R14,
         R18): the call chain from the entry point to the effect site;
         [] for single-site findings *)
}

val compare_findings : finding -> finding -> int

(* "./lib/sim/rng.ml" -> "lib/sim/rng.ml". *)
val normalize : string -> string

(* Apply the pragmas of [file] to its findings. [used] names pragma
   lines the analysis already consumed (effect-site waivers), so they
   are not flagged as unused; with [only] set, no waiver is reported as
   unused (its rule may just be out of scope). Sorted. *)
val apply_waivers :
  ?only:string list ->
  file:string ->
  used:int list ->
  Pragma.parsed list ->
  finding list ->
  finding list

val errors : finding list -> finding list
