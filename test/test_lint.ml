(* Fixture tests for the determinism linter (lib/lint): every rule
   R1-R6 firing on a violating snippet — also when a module alias, a
   local open or an [include] renames the forbidden identifier —
   staying quiet on the clean equivalent, and being silenced by a
   waiver pragma; plus the pragma machinery itself (reason required,
   unknown rules rejected, unused waivers reported), the per-rule file
   allowlists, and a linted file without a typed tree.

   Fixtures are typechecked in-process (Typed_engine.lint_source), so
   those naming repo modules carry local stubs, and record literals
   carry their type declaration on the same line to keep line numbers.

   Pragma keywords inside fixture strings are assembled by
   concatenation so the linter, which scans this file too, does not
   mistake them for waivers of the host file. *)

let kw = "(* ncc-" ^ "lint:"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let sites ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (Lint.Typed_engine.lint_source ~file src)

let check_sites name ?file expected src =
  Alcotest.(check (list (triple string int string))) name expected (sites ?file src)

let trace_record = "type st = { buf : int array; n : int } "

let fires () =
  check_sites "R1 Random use"
    [ ("fixture.ml", 2, "R1") ]
    "let scale = 3\nlet f bound = Random.int (bound * scale)\n";
  check_sites "R1 Random.State use"
    [ ("fixture.ml", 1, "R1") ]
    "let f st = Random.State.bool st\n";
  check_sites "R2 wall clock"
    [ ("fixture.ml", 1, "R2") ]
    "let now () = Unix.gettimeofday ()\n";
  check_sites "R2 cpu clock"
    [ ("fixture.ml", 1, "R2") ]
    "let t () = Sys.time ()\n";
  check_sites "R3 unordered fold"
    [ ("fixture.ml", 1, "R3") ]
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n";
  check_sites "R3 unordered iter"
    [ ("fixture.ml", 2, "R3") ]
    "let f t g =\n  Hashtbl.iter g t\n";
  check_sites "R4 magic"
    [ ("fixture.ml", 1, "R4") ]
    "let cast x = Obj.magic x\n";
  check_sites "R4 Obj.t in a type"
    [ ("fixture.ml", 1, "R4") ]
    "type t = { payload : Obj.t }\n";
  check_sites "R5 toplevel ref"
    [ ("fixture.ml", 1, "R5") ]
    "let counter = ref 0\n";
  check_sites "R5 toplevel table"
    [ ("fixture.ml", 2, "R5") ]
    "let size = 16\nlet cache = Hashtbl.create size\n";
  check_sites "R5 toplevel array literal (Trace-style mutable record)"
    [ ("fixture.ml", 1, "R5") ]
    (trace_record ^ "let state = { buf = [||]; n = 0 }\n");
  check_sites "R5 inside nested module"
    [ ("fixture.ml", 2, "R5") ]
    "module M = struct\n  let hits = ref 0\nend\n";
  check_sites "R6 wildcard try"
    [ ("fixture.ml", 1, "R6") ]
    "let safe g = try g () with _ -> 0\n";
  check_sites "R6 wildcard match-exception"
    [ ("fixture.ml", 1, "R6") ]
    "let safe g = match g () with x -> x | exception _ -> 0\n"

(* Names are matched after path resolution: a module alias, a local
   open or an [include] cannot smuggle a forbidden identifier past the
   rules. *)
let resolved () =
  check_sites "R3 through a module alias"
    [ ("fixture.ml", 2, "R3") ]
    "module H = Hashtbl\nlet f t g = H.iter g t\n";
  check_sites "R3 through a local module alias"
    [ ("fixture.ml", 1, "R3") ]
    "let f t g = let module H = Hashtbl in H.iter g t\n";
  check_sites "R1 through a local open"
    [ ("fixture.ml", 1, "R1") ]
    "let f () = let open Random in int 5\n";
  check_sites "R1 through an include"
    [ ("fixture.ml", 2, "R1") ]
    "include Random\nlet f () = int 5\n";
  check_sites "R4 through an aliased type"
    [ ("fixture.ml", 2, "R4") ]
    "module O = Obj\ntype t = { payload : O.t }\n";
  check_sites "R5 through an aliased creator"
    [ ("fixture.ml", 2, "R5") ]
    "module T = Hashtbl\nlet cache = T.create 16\n"

let clean () =
  check_sites "R1 clean: Sim.Rng" []
    "module Sim = struct\n\
    \  module Rng = struct let int _ bound = bound end\n\
     end\n\
     let f rng bound = Sim.Rng.int rng bound\n";
  check_sites "R2 clean: simulated time" []
    "module Sim = struct\n\
    \  module Engine = struct let now _ = 0.0 end\n\
     end\n\
     let now engine = Sim.Engine.now engine\n";
  check_sites "R3 clean: Detmap" []
    "module Kernel = struct\n\
    \  module Detmap = struct let fold_sorted _ _ acc = acc end\n\
     end\n\
     let keys t = Kernel.Detmap.fold_sorted (fun k _ acc -> k :: acc) t []\n";
  check_sites "R3 clean: a user module that happens to be called Hashtbl" []
    "module Hashtbl = struct let iter _ _ = () end\n\
     let f t g = Hashtbl.iter g t\n";
  check_sites "R3 clean: point lookups stay free" []
    "let f t k = Hashtbl.replace t k (Option.value ~default:0 (Hashtbl.find_opt t k))\n";
  check_sites "R5 clean: creation under a function" []
    "let make () = (ref 0, Hashtbl.create 16, Buffer.create 64)\n";
  check_sites "R5 clean: unit driver body" []
    "let () = print_string (Buffer.contents (Buffer.create 4))\n";
  check_sites "R6 clean: named exception" []
    "let safe g = try g () with Not_found -> 0\n"

let waived () =
  check_sites "R1 waived, pragma above" []
    (kw ^ " allow R1 \xe2\x80\x94 fixture exercising the waiver *)\n\
     let f bound = Random.int bound\n");
  check_sites "R3 waived, trailing pragma" []
    ("let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] " ^ kw
   ^ " allow R3 -- commutative *)\n");
  check_sites "R5+R2 waived together" []
    (kw ^ " allow R5, R2 - fixture *)\nlet t0 = ref (Unix.gettimeofday ())\n");
  check_sites "waiver is line-scoped: second site still fires"
    [ ("fixture.ml", 3, "R5") ]
    (kw ^ " allow R5 - fixture *)\nlet a = ref 0\nlet b = ref 0\n");
  (* the R3 finding is waived; R6 on the same line is not *)
  check_sites "waiver is rule-scoped: other rule still fires"
    [ ("fixture.ml", 2, "R6") ]
    (kw ^ " allow R3 - wrong rule *)\nlet f t g = try Hashtbl.iter g t with _ -> ()\n")

let pragma_machinery () =
  check_sites "reasonless waiver is an error"
    [ ("fixture.ml", 1, "pragma"); ("fixture.ml", 2, "R5") ]
    (kw ^ " allow R5 *)\nlet a = ref 0\n");
  check_sites "unknown rule id is an error"
    [ ("fixture.ml", 1, "pragma"); ("fixture.ml", 2, "R5") ]
    (kw ^ " allow R42 - no such rule *)\nlet a = ref 0\n");
  check_sites "unused waiver is reported"
    [ ("fixture.ml", 1, "pragma") ]
    (kw ^ " allow R1 - nothing here uses Random *)\nlet a = 1\n");
  (let fs =
     Lint.Typed_engine.lint_source ~file:"fixture.ml"
       (kw ^ " allow R1 - unused *)\nlet a = 1\n")
   in
   match fs with
   | [ f ] ->
     Alcotest.(check bool) "unused waiver is warn-severity" true
       (f.Lint.Engine.severity = Lint.Rules.Warn)
   | _ -> Alcotest.fail "expected exactly one finding");
  check_sites "keyword inside a string literal is inert" []
    "let doc = \"ncc-lint: allow R1 - not a pragma\"\n"

let allowlists () =
  check_sites "R1 allowed inside Sim.Rng" ~file:"lib/sim/rng.ml" []
    "let bits st = Random.State.bits st\n";
  check_sites "path normalization applies to allowlists"
    ~file:"./lib/sim/rng.ml" [] "let bits st = Random.State.bits st\n";
  check_sites "R5 allowed inside Sim.Trace" ~file:"lib/sim/trace.ml" []
    (trace_record ^ "let st = { buf = [||]; n = 0 }\n");
  check_sites "R3 allowed inside Detmap itself" ~file:"lib/kernel/detmap.ml" []
    "let bindings t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []\n";
  (* the allowlist is per-rule: R2 still fires inside Sim.Rng *)
  check_sites "allowlist is rule-scoped" ~file:"lib/sim/rng.ml"
    [ ("lib/sim/rng.ml", 1, "R2") ]
    "let seed () = int_of_float (Unix.time ())\n"

let parse_error_is_finding () =
  match Lint.Typed_engine.lint_source ~file:"fixture.ml" "let let let\n" with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse" f.Lint.Engine.rule;
    Alcotest.(check bool) "severity" true (f.Lint.Engine.severity = Lint.Rules.Error)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 parse finding, got %d" (List.length fs))

(* A linted source with no typed tree is an error finding, never a
   silent skip: the rules cannot have looked at it. *)
let missing_cmt_is_finding () =
  match Lint.Typed_engine.lint_cmts ~files:[ "lib/orphan.ml" ] [] with
  | [ f ] ->
    Alcotest.(check (triple string int string)) "site"
      ("lib/orphan.ml", 1, "cmt")
      (f.Lint.Engine.file, f.line, f.rule);
    Alcotest.(check bool) "severity" true (f.Lint.Engine.severity = Lint.Rules.Error)
  | fs -> Alcotest.failf "expected 1 cmt finding, got %d" (List.length fs)

let reporters () =
  let findings =
    Lint.Typed_engine.lint_source ~file:"fixture.ml" "let c = ref 0\n"
  in
  let human = Format.asprintf "%a" Lint.Report.print_human findings in
  Alcotest.(check bool) "human form has file:line:col and rule" true
    (contains human "fixture.ml:1:8: [R5/error]");
  let json = Format.asprintf "%a" Lint.Report.print_json findings in
  Alcotest.(check bool) "json form carries the site" true
    (contains json {|"file":"fixture.ml","line":1,"col":8,"rule":"R5"|});
  Alcotest.(check bool) "json form counts errors" true
    (contains json {|"errors":1|})

(* Golden pin of the JSON schema. This is the exact byte shape
   downstream tooling parses: any change to it is a breaking schema
   change and must bump [Report.schema_version] (and this test). *)
let json_golden () =
  Alcotest.(check int) "schema version" 2 Lint.Report.schema_version;
  let f =
    {
      Lint.Engine.file = "lib/a.ml";
      line = 3;
      col = 4;
      rule = "R12";
      severity = Lint.Rules.Error;
      message = {|escape of "q"|};
      chain = [ "A.sweep"; "A.record" ];
    }
  in
  Alcotest.(check string) "golden finding object"
    {|{"file":"lib/a.ml","line":3,"col":4,"rule":"R12","severity":"error","message":"escape of \"q\"","chain":["A.sweep","A.record"]}|}
    (Lint.Report.json_finding f);
  Alcotest.(check string) "golden document shape"
    ({|{"version":2,"findings":[|} ^ Lint.Report.json_finding f
   ^ {|],"errors":1}|} ^ "\n")
    (Format.asprintf "%a" Lint.Report.print_json [ f ])

(* Golden pin of the SARIF 2.1.0 output: byte-exact, because CI
   uploads it to code scanning and a formatting wobble would churn
   every annotation. One chained finding exercises ruleIndex, the
   1-based column shift and the chain-in-message fold. *)
let sarif_golden () =
  Alcotest.(check string) "sarif version" "2.1.0" Lint.Report.sarif_version;
  let f =
    {
      Lint.Engine.file = "lib/a.ml";
      line = 3;
      col = 4;
      rule = "R18";
      severity = Lint.Rules.Error;
      message = "option construction in A.helper, which is hot via A.run";
      chain = [ "A.run"; "A.helper" ];
    }
  in
  let out = Format.asprintf "%a" Lint.Report.print_sarif [ f ] in
  let rule_index =
    let rec idx i = function
      | [] -> Alcotest.fail "R18 not in Rules.all"
      | (r : Lint.Rules.rule) :: _ when r.Lint.Rules.id = "R18" -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 Lint.Rules.all
  in
  Alcotest.(check string) "golden result object"
    (Printf.sprintf
       {|{"ruleId":"R18","ruleIndex":%d,"level":"error","message":{"text":"option construction in A.helper, which is hot via A.run\ncall chain: A.run -> A.helper"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"lib/a.ml"},"region":{"startLine":3,"startColumn":5}}}]}|}
       rule_index)
    (Lint.Report.sarif_result f);
  Alcotest.(check bool) "document is one sarif run" true
    (contains out
       {|{"version":"2.1.0","$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"tool":{"driver":{"name":"ncc_lint"|});
  Alcotest.(check bool) "driver rule table carries every rule id" true
    (List.for_all
       (fun (r : Lint.Rules.rule) ->
         contains out (Printf.sprintf {|{"id":"%s",|} r.Lint.Rules.id))
       Lint.Rules.all);
  (* a pseudo-rule finding ("cmt") has no registry entry: no ruleIndex *)
  let pseudo =
    {
      Lint.Engine.file = "x.cmt";
      line = 1;
      col = 0;
      rule = "cmt";
      severity = Lint.Rules.Error;
      message = "cannot read cmt";
      chain = [];
    }
  in
  Alcotest.(check bool) "pseudo-rule results omit ruleIndex" true
    (contains (Lint.Report.sarif_result pseudo) {|{"ruleId":"cmt","level":|})

(* --explain coverage: every registered rule id must resolve to a rule
   with a non-empty rationale and firing example, or the flag would die
   mid-print. *)
let explain_coverage () =
  List.iter
    (fun id ->
      match Lint.Rules.find id with
      | None -> Alcotest.failf "known id %s has no rule" id
      | Some r ->
        Alcotest.(check bool)
          (id ^ " resolves to a live rule id") true
          (List.exists
             (fun (x : Lint.Rules.rule) -> x.Lint.Rules.id = r.Lint.Rules.id)
             Lint.Rules.all);
        Alcotest.(check bool) (id ^ " has a summary") false (r.summary = "");
        Alcotest.(check bool) (id ^ " has a rationale") false (r.rationale = "");
        Alcotest.(check bool) (id ^ " has a firing example") false
          (r.example = ""))
    Lint.Rules.known_ids;
  (* the four allocation-plane rules are registered; the retired R11 is
     gone *)
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " is registered") true
        (List.mem id Lint.Rules.known_ids))
    [ "R16"; "R17"; "R18"; "R19" ];
  Alcotest.(check bool) "R11 is not a rule id" false
    (List.mem "R11" Lint.Rules.known_ids)

(* The --waivers inventory: deterministic file-then-line order, the
   full rule list and reason per row, and a trailing count. *)
let waiver_inventory () =
  let scan file src =
    List.filter_map
      (function
        | Lint.Pragma.Pragma p -> Some (file, p)
        | Lint.Pragma.Malformed _ -> None)
      (Lint.Pragma.scan src)
  in
  let items =
    scan "lib/b.ml"
      ("let x = 1\n" ^ kw ^ " allow R16, R17 — compat tuple *)\nlet y = 2\n")
    @ scan "lib/a.ml" (kw ^ " allow R8 — tie-breaker *)\nlet z = 3.0\n")
  in
  Alcotest.(check string) "inventory rows sort by file then line"
    ("lib/a.ml:1: allow R8 \xe2\x80\x94 tie-breaker\n"
   ^ "lib/b.ml:2: allow R16, R17 \xe2\x80\x94 compat tuple\n"
   ^ "ncc_lint: 2 waivers\n")
    (Format.asprintf "%a" Lint.Report.print_waivers items);
  Alcotest.(check string) "empty inventory still prints the count"
    "ncc_lint: 0 waivers\n"
    (Format.asprintf "%a" Lint.Report.print_waivers [])

let suite =
  [
    Alcotest.test_case "rules fire" `Quick fires;
    Alcotest.test_case "resolved paths: aliases, opens, includes" `Quick
      resolved;
    Alcotest.test_case "clean code stays clean" `Quick clean;
    Alcotest.test_case "waiver pragmas" `Quick waived;
    Alcotest.test_case "pragma machinery" `Quick pragma_machinery;
    Alcotest.test_case "file allowlists" `Quick allowlists;
    Alcotest.test_case "parse errors are findings" `Quick parse_error_is_finding;
    Alcotest.test_case "a file without a cmt is a finding" `Quick
      missing_cmt_is_finding;
    Alcotest.test_case "reporters" `Quick reporters;
    Alcotest.test_case "json schema golden" `Quick json_golden;
    Alcotest.test_case "sarif golden" `Quick sarif_golden;
    Alcotest.test_case "explain coverage" `Quick explain_coverage;
    Alcotest.test_case "waiver inventory" `Quick waiver_inventory;
  ]
