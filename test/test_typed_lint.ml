(* Fixture tests for the typed lint engine (lib/lint/typed_engine):
   each of R7-R10 firing on a violating snippet, staying quiet on the
   clean equivalent, and being silenced by a waiver pragma; plus the
   R9 call-chain evidence (multi-hop, stable, repo-relative) and its
   rendering in both reporters.

   Fixtures are typechecked in-process against the stdlib environment
   (Typed_engine.check_impl), so types the rules key on (Ts.t, a
   simulated-time [Engine.now]) are declared locally — the registries
   match by path suffix, so a local [Ts.t] exercises the same code
   path as [Kernel.Ts.t].

   Pragma keywords inside fixture strings are assembled by
   concatenation so the linter, which scans this file too, does not
   mistake them for waivers of the host file. *)

let kw = "(* ncc-" ^ "lint:"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let unit_of ~file src =
  match Lint.Typed_engine.check_impl ~file src with
  | Ok u -> u
  | Error e -> Alcotest.failf "fixture %s does not typecheck: %s" file e

(* The type- and graph-aware rules only (R7 and up): the site-local
   R1-R6 are test_lint.ml's business, and would fire on fixtures that
   call Random or build toplevel tables on purpose. *)
let planes =
  List.filter_map
    (fun (r : Lint.Rules.rule) ->
      match r.matcher with Lint.Rules.Typed -> Some r.id | _ -> None)
    Lint.Rules.all

let typed ?(only = planes) ~file src =
  Lint.Typed_engine.lint_units ~only [ unit_of ~file src ]

let sites ?only ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (typed ?only ~file src)

let check_sites name ?only ?file expected src =
  Alcotest.(check (list (triple string int string)))
    name expected
    (sites ?only ?file src)

(* The full pipeline as bin/ncc_lint runs it: every rule, waivers
   applied, unused waivers reported. *)
let full ?(file = "fixture.ml") src = Lint.Typed_engine.lint_source ~file src

let full_sites ?file src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (full ?file src)

let owned_eq_fixture =
  "module Ts = struct\n  type t = { time : int; cid : int }\nend\n\n\
   let eq (a : Ts.t) (b : Ts.t) = a = b\n"

let r7_fires () =
  check_sites "owned type (local Ts.t) under ="
    [ ("fixture.ml", 5, "R7") ]
    owned_eq_fixture;
  check_sites "float-bearing tuple under List.mem"
    [ ("fixture.ml", 1, "R7") ]
    "let has (x : float * int) l = List.mem x l\n";
  check_sites "function type under compare"
    [ ("fixture.ml", 1, "R7") ]
    "let same_fn (f : int -> int) (g : int -> int) = compare f g\n";
  check_sites "hash-ordered container under Hashtbl.hash"
    [ ("fixture.ml", 1, "R7") ]
    "let digest (t : (int, int) Hashtbl.t) = Hashtbl.hash t\n";
  check_sites "node_id alias under List.mem (registry suffix)"
    [ ("fixture.ml", 5, "R7") ]
    "module Types = struct\n  type node_id = int\nend\n\n\
     let voted (v : Types.node_id) l = List.mem v l\n"

let r7_clean () =
  check_sites "int equality is fine" [] "let eq (a : int) (b : int) = a = b\n";
  check_sites "unresolved type variable is skipped" []
    "let both x y = x = y\n";
  check_sites "pure float = belongs to R8, not R7" [] ~only:[ "R7" ]
    "let f (a : float) (b : float) = a = b\n";
  Alcotest.(check (list (triple string int string)))
    "waived owned-type equality" []
    (full_sites
       ("module Ts = struct\n  type t = { time : int; cid : int }\nend\n\n"
      ^ kw
      ^ " allow R7 - audited model equality over int fields *)\n\
         let eq (a : Ts.t) (b : Ts.t) = a = b\n"))

let r8_fires () =
  check_sites "float =" [ ("fixture.ml", 1, "R8") ]
    "let same (a : float) (b : float) = a = b\n";
  check_sites "float <>" [ ("fixture.ml", 1, "R8") ]
    "let differ (a : float) (b : float) = a <> b\n";
  check_sites "ordering a raw simulated-time read"
    [ ("fixture.ml", 5, "R8") ]
    "module Engine = struct\n  let now () = 1.0\nend\n\n\
     let expired deadline = Engine.now () >= deadline\n"

let r8_clean () =
  check_sites "integer nanoseconds compare fine" []
    "let expired_ns (now_ns : int) (deadline : int) = now_ns >= deadline\n";
  check_sites "float ordering without a time read is not R8's business"
    [] ~only:[ "R8" ] "let lt (a : float) (b : float) = a < b\n";
  Alcotest.(check (list (triple string int string)))
    "waived float equality" []
    (full_sites
       (kw
      ^ " allow R8 - exact zero sentinel on a configured probability *)\n\
         let off (p : float) = p = 0.0\n"))

let proto_file = "lib/fixture_proto.ml"

let proto_fixture =
  "let jitter () = Random.int 10\n\n\
   let backoff n = n + jitter ()\n\n\
   let submit t = backoff t\n"

let expected_chain =
  [
    "Fixture_proto.submit";
    "Fixture_proto.backoff";
    "Fixture_proto.jitter";
    "Random.int (lib/fixture_proto.ml:1)";
  ]

let r9_chain () =
  match typed ~file:proto_file proto_fixture with
  | [ f ] ->
    Alcotest.(check string) "rule" "R9" f.Lint.Engine.rule;
    Alcotest.(check string) "repo-relative file" proto_file f.Lint.Engine.file;
    Alcotest.(check int) "at the handler definition" 5 f.Lint.Engine.line;
    Alcotest.(check string)
      "message names handler, category and effect"
      "handler Fixture_proto.submit can reach ambient randomness: Random.int"
      f.Lint.Engine.message;
    Alcotest.(check (list string))
      "multi-hop call chain" expected_chain f.Lint.Engine.chain;
    (* a second, independently typechecked run produces the same
       chain: the BFS is deterministic *)
    (match typed ~file:proto_file proto_fixture with
     | [ f' ] ->
       Alcotest.(check (list string))
         "chain is stable across runs" f.Lint.Engine.chain
         f'.Lint.Engine.chain
     | fs -> Alcotest.failf "second run: %d findings" (List.length fs))
  | fs -> Alcotest.failf "expected exactly one R9 finding, got %d" (List.length fs)

let r9_mutation_and_waiver () =
  (* a handler mutating a module-global is flagged... *)
  (match
     typed ~file:"lib/fixture_state.ml"
       "let table = Hashtbl.create 16\n\n\
        let submit x = Hashtbl.replace table x x\n"
   with
   | [ f ] ->
     Alcotest.(check string) "rule" "R9" f.Lint.Engine.rule;
     Alcotest.(check bool) "names the global" true
       (contains f.Lint.Engine.message
          "Hashtbl.replace on global Fixture_state.table")
   | fs -> Alcotest.failf "expected one R9 finding, got %d" (List.length fs));
  (* ...and an effect-site waiver removes the effect from the graph:
     no finding, and the pragma counts as used (an unused one would be
     reported by the full pipeline) *)
  Alcotest.(check (list (triple string int string)))
    "waiver consumed at the effect site" []
    (full_sites ~file:"lib/fixture_state.ml"
       (kw ^ " allow R5 - fixture: audited table *)\n\
              let table = Hashtbl.create 16\n\n" ^ kw
      ^ " allow R9 - audited reset-on-run counter *)\n\
         let submit x = Hashtbl.replace table x x\n"))

let r9_clean () =
  check_sites "pure handler is quiet" [] ~file:"lib/fixture_pure.ml"
    "let double n = n * 2\n\nlet submit t = double t\n";
  (* same code outside lib/ is not an entry point *)
  check_sites "entry points only under lib/" [] ~file:"tools/fixture.ml"
    proto_fixture

let r10_fixture =
  "module P = struct\n  type msg = Ping | Pong | Dead\nend\n\n\
   let send () = [ P.Ping; P.Pong ]\n\n\
   let recv (m : P.msg) = match m with P.Ping -> 1 | _ -> 0\n"

let r10_liveness () =
  check_sites "dead constructors flagged at the declaration"
    [ ("fixture.ml", 2, "R10"); ("fixture.ml", 2, "R10") ]
    r10_fixture;
  let msgs =
    List.map
      (fun (f : Lint.Engine.finding) -> f.Lint.Engine.message)
      (typed ~file:"fixture.ml" r10_fixture)
  in
  Alcotest.(check bool) "built-but-never-matched constructor" true
    (List.exists
       (fun m -> contains m "Pong" && contains m "never explicitly matched")
       msgs);
  Alcotest.(check bool) "fully dead constructor" true
    (List.exists
       (fun m ->
         contains m "Dead" && contains m "never constructed and never matched")
       msgs);
  check_sites "live constructors are quiet" []
    "module P = struct\n  type msg = Ping\nend\n\n\
     let send () = P.Ping\n\n\
     let recv (m : P.msg) = match m with P.Ping -> 1\n";
  Alcotest.(check (list (triple string int string)))
    "waived reserved constructors" []
    (full_sites
       ("module P = struct\n  " ^ kw
      ^ " allow R10 - reserved wire constructors *)\n\
        \  type msg = Ping | Pong\nend\n"))

(* --- R12 graph half: parallel-sweep isolation ----------------------- *)

(* The graph half of R12: toplevel mutable state reachable from a
   pooled closure through the call graph. A local [Pool] stub exercises
   the same suffix-matched registry path ("Pool.map") as the real
   Harness.Pool. *)
let r12_graph_fixture =
  "module Pool = struct\n\
  \  let map ~jobs:_ f xs = List.map f xs\n\
   end\n\n\
   let tally = Hashtbl.create 16\n\n\
   let record x = Hashtbl.replace tally x x\n\n\
   let sweep xs = Pool.map ~jobs:4 (fun x -> record x) xs\n"

let r12_graph_fires () =
  match typed ~only:[ "R12" ] ~file:"fixture.ml" r12_graph_fixture with
  | [ f ] ->
    Alcotest.(check string) "rule" "R12" f.Lint.Engine.rule;
    Alcotest.(check int) "at the submitting binding" 9 f.Lint.Engine.line;
    Alcotest.(check bool) "names the submitting binding and the state" true
      (contains f.Lint.Engine.message "Fixture.sweep"
      && contains f.Lint.Engine.message
           "Hashtbl.replace on global Fixture.tally");
    Alcotest.(check (list string))
      "chain runs from the submitter through the mutator to the effect"
      [ "Fixture.sweep"; "Fixture.record";
        "Hashtbl.replace on global Fixture.tally (fixture.ml:7)" ]
      f.Lint.Engine.chain
  | fs ->
    Alcotest.failf "expected exactly one R12 finding, got %d" (List.length fs)

let r12_graph_clean () =
  (* self-contained jobs: all state is built inside the closure *)
  check_sites "pure pooled sweep is quiet" [] ~only:[ "R12" ]
    "module Pool = struct\n\
    \  let map ~jobs:_ f xs = List.map f xs\n\
     end\n\n\
     let job x =\n\
    \  let acc = Hashtbl.create 16 in\n\
    \  Hashtbl.replace acc x x;\n\
    \  Hashtbl.length acc\n\n\
     let sweep xs = Pool.map ~jobs:4 (fun x -> job x) xs\n";
  (* mutating a global is fine as long as no binding on the path hands
     work to the pool *)
  check_sites "sequential mutation is not R12's business" [] ~only:[ "R12" ]
    "let tally = Hashtbl.create 16\n\n\
     let record x = Hashtbl.replace tally x x\n\n\
     let sweep xs = List.map (fun x -> record x) xs\n"

let r12_graph_waived () =
  (* an effect-site waiver on the mutation silences the chain *)
  Alcotest.(check (list (triple string int string)))
    "waived pooled mutation" []
    (full_sites
       ("module Pool = struct\n\
        \  let map ~jobs:_ f xs = List.map f xs\n\
         end\n\n"
      ^ kw
      ^ " allow R5 - fixture: audited accumulator *)\n\
         let tally = Hashtbl.create 16\n\n"
      ^ kw
      ^ " allow R12 - fixture: merge is order-insensitive by review *)\n\
         let record x = Hashtbl.replace tally x x\n\n\
         let sweep xs = Pool.map ~jobs:4 (fun x -> record x) xs\n"))

let rule_filter () =
  let src =
    "let f (a : float) (b : float) = a = b\n\
     let g (x : float * int) l = List.mem x l\n"
  in
  check_sites "--rules R8 keeps only R8" [ ("fixture.ml", 1, "R8") ]
    ~only:[ "R8" ] src;
  check_sites "--rules R7 keeps only R7" [ ("fixture.ml", 2, "R7") ]
    ~only:[ "R7" ] src

let reporters () =
  match typed ~file:proto_file proto_fixture with
  | [ f ] ->
    let human = Format.asprintf "%a" Lint.Report.human f in
    Alcotest.(check bool) "human reporter prints the chain" true
      (contains human
         ("call chain: " ^ String.concat " -> " expected_chain));
    let json = Lint.Report.json_finding f in
    Alcotest.(check bool) "json reporter carries the chain" true
      (contains json
         ({|"chain":[|}
         ^ String.concat ","
             (List.map (fun s -> {|"|} ^ s ^ {|"|}) expected_chain)
         ^ "]"))
  | fs -> Alcotest.failf "expected one R9 finding, got %d" (List.length fs)

let suite =
  [
    Alcotest.test_case "R7 fires" `Quick r7_fires;
    Alcotest.test_case "R7 clean and waived" `Quick r7_clean;
    Alcotest.test_case "R8 fires" `Quick r8_fires;
    Alcotest.test_case "R8 clean and waived" `Quick r8_clean;
    Alcotest.test_case "R9 multi-hop call chain" `Quick r9_chain;
    Alcotest.test_case "R9 mutation and effect-site waiver" `Quick
      r9_mutation_and_waiver;
    Alcotest.test_case "R9 clean" `Quick r9_clean;
    Alcotest.test_case "R10 constructor liveness" `Quick r10_liveness;
    Alcotest.test_case "R12 graph half fires on pooled reachable mutation"
      `Quick r12_graph_fires;
    Alcotest.test_case "R12 graph half clean" `Quick r12_graph_clean;
    Alcotest.test_case "R12 graph half waived" `Quick r12_graph_waived;
    Alcotest.test_case "rule filter" `Quick rule_filter;
    Alcotest.test_case "reporters carry the chain" `Quick reporters;
  ]
