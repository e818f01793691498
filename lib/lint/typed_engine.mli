(* The lint engine: every rule (R1-R10 here, the race plane R12-R15 in
   Race_engine, the allocation plane R16-R19 in Alloc_engine) over the
   compiler's typedtree, then the waiver pass. Findings are
   Engine.finding values; R9/R12/R14/R18 findings carry the call chain
   to the effect site in [Engine.finding.chain]. *)

type unit_info = {
  u_name : string;  (* canonical module path, e.g. "Ncc.Server" *)
  u_file : string;  (* repo-relative source path *)
  u_str : Typedtree.structure;
  u_source : string option;  (* for waiver pragmas *)
}

(* Analyse a set of units (whole-program: the call graph and R10's
   constructor tallies span them) and apply each unit's waiver
   pragmas. Sorted. [only] restricts to the given rule ids, and then
   unused waivers are not reported. *)
val lint_units : ?only:string list -> unit_info list -> Engine.finding list

(* Load the given .cmt files (unreadable ones surface as findings with
   pseudo-rule "cmt"; interface-only units and dune's generated
   library-wrapper shims are skipped) and analyse them. With [files],
   report only findings in those repo-relative sources, and report
   each of them that no loaded unit covers as a "cmt" finding. *)
val lint_cmts :
  ?only:string list -> ?files:string list -> string list -> Engine.finding list

(* Load the given .cmt files without analysing them — the bench times
   cmt loading and the analysis separately. Unreadable paths surface as
   "cmt" pseudo-rule findings in the second component. *)
val load_units : string list -> unit_info list * Engine.finding list

(* Typecheck one implementation against the compiler's initial
   environment (stdlib and unix) and wrap it as a unit — how the
   fixture tests exercise the rules without a build tree. *)
val check_impl : file:string -> string -> (unit_info, string) result

(* [check_impl] then [lint_units]: one source, linted end to end. A
   source that does not parse or typecheck is one "parse" or "cmt"
   finding. *)
val lint_source : ?only:string list -> file:string -> string -> Engine.finding list
