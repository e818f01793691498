(* Findings, and the waiver pass every finding goes through before it
   is reported. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : Rules.severity;
  message : string;
  chain : string list;
}

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* "./lib/sim/rng.ml" and "lib/sim/rng.ml" are the same file. *)
let normalize file =
  let n = String.length file in
  if n >= 2 && String.sub file 0 2 = "./" then String.sub file 2 (n - 2)
  else file

let pragma_finding ~file ~line ~severity message =
  { file; line; col = 0; rule = "pragma"; severity; message; chain = [] }

(* When [only] restricts the rule set, unused waivers are not reported
   at all: a waiver for an unselected rule is not dead, it is just out
   of scope for this run. *)
let apply_waivers ?only ~file ~used parsed findings =
  let pragmas, malformed =
    List.partition_map
      (function
        | Pragma.Pragma p -> Either.Left p
        | Pragma.Malformed { line; msg } -> Either.Right (line, msg))
      parsed
  in
  let used = ref used in
  let kept =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun p -> Pragma.covers p ~rule:f.rule ~line:f.line)
            pragmas
        with
        | Some p ->
          used := p.Pragma.line :: !used;
          false
        | None -> true)
      findings
  in
  let unused =
    if only <> None then []
    else
      List.filter_map
        (fun (p : Pragma.t) ->
          if List.mem p.line !used then None
          else
            Some
              (pragma_finding ~file ~line:p.line ~severity:Rules.Warn
                 (Printf.sprintf "unused waiver for %s (nothing to waive here)"
                    (String.concat "," p.rules))))
        pragmas
  in
  let bad =
    List.map
      (fun (line, msg) -> pragma_finding ~file ~line ~severity:Rules.Error msg)
      malformed
  in
  List.sort compare_findings (kept @ unused @ bad)

let errors findings = List.filter (fun f -> f.severity = Rules.Error) findings
