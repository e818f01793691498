(* Fixture tests for the allocation plane (lib/lint/alloc_engine):
   R16 boxed-float traffic, R17 per-call allocation, R18 hotness
   propagation over the call graph with chain evidence, and R19
   hot-annotation hygiene — each firing, staying quiet on the clean
   equivalent, and silenced by a waiver pragma. The propagation edge
   cases the plane must get right are covered explicitly: a hot entry
   reached through a module alias, a closure handed to Pool.submit
   from a hot function, and a callee only reachable through a dead
   branch (which must stay cold).

   Hotness comes either from the Hotpaths seed registry — fixture
   modules named [Sim.Heap] etc. suffix-match the seeds, exactly as
   dune-mangled unit names do — or from [@ncc.hot] attributes.

   Fixtures typecheck in-process against the stdlib environment
   (Typed_engine.check_impl). Pragma keywords inside fixture strings
   are assembled by concatenation so the linter, which scans this file
   too, does not mistake them for waivers of the host file. *)

let kw = "(* ncc-" ^ "lint:"

let unit_of ~file src =
  match Lint.Typed_engine.check_impl ~file src with
  | Ok u -> u
  | Error e -> Alcotest.failf "fixture %s does not typecheck: %s" file e

let findings ?only ~file src =
  Lint.Typed_engine.lint_units ?only [ unit_of ~file src ]

let sites ?only ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (findings ?only ~file src)

let check_sites name ?only ?file expected src =
  Alcotest.(check (list (triple string int string)))
    name expected
    (sites ?only ?file src)

(* Full pipeline with waiver application, as bin/ncc_lint runs it. *)
let full_sites ?only ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (Lint.Typed_engine.lint_source ?only ~file src)

let pool_stub =
  "module Pool = struct\n\
  \  let submit _p f = f ()\n\
   end\n\
   let pool = ()\n\n"

(* --- R16: boxed-float traffic ------------------------------------------ *)

let r16_fires () =
  check_sites "float ref in an annotated hot function fires"
    ~only:[ "R16" ]
    [ ("fixture.ml", 2, "R16") ]
    "let[@ncc.hot] step dt =\n  let acc = ref 0.0 in\n  acc := !acc +. dt;\n  !acc\n";
  check_sites "float tuple in a seeded hot function fires" ~only:[ "R16" ]
    [ ("fixture.ml", 3, "R16") ]
    "module Sim = struct module Heap = struct\n\
    \  let top_prio h =\n\
    \    (1.0, h)\n\
     end end\n";
  check_sites "float into an option payload fires" ~only:[ "R16" ]
    [ ("fixture.ml", 1, "R16") ]
    "let[@ncc.hot] peek_prio x = if x > 0.0 then Some x else None\n";
  check_sites "float field of a mixed record fires" ~only:[ "R16" ]
    [ ("fixture.ml", 2, "R16") ]
    "type e = { prio : float; seq : int }\n\
     let[@ncc.hot] make p s = { prio = p; seq = s }\n";
  check_sites "write to a mixed record's float field fires" ~only:[ "R16" ]
    [ ("fixture.ml", 2, "R16") ]
    "type s = { mutable now : float; mutable n : int }\n\
     let[@ncc.hot] tick t dt = t.now <- t.now +. dt\n"

let r16_clean () =
  check_sites "int ref and int tuple stay clean" ~only:[ "R16" ] []
    "let[@ncc.hot] count xs =\n\
    \  let n = ref 0 in\n\
    \  List.iter (fun _ -> incr n) xs;\n\
    \  !n\n";
  check_sites "flat float array writes stay clean" ~only:[ "R16" ] []
    "let[@ncc.hot] fill (a : float array) x =\n\
    \  for i = 0 to Array.length a - 1 do a.(i) <- x done\n";
  check_sites "all-float records stay clean" ~only:[ "R16" ] []
    "type v = { x : float; y : float }\n\
     let[@ncc.hot] mk a b = { x = a; y = b }\n";
  check_sites "cold functions may box floats" ~only:[ "R16" ] []
    "let summarise dt = Some (ref dt)\n"

let r16_waived () =
  Alcotest.(check (list (triple string int string)))
    "a waiver silences R16 at the site" []
    (full_sites ~only:[ "R16" ]
       ("let[@ncc.hot] step dt =\n  " ^ kw
      ^ " allow R16 — accumulator kept boxed: benchmarked, not measurable *)\n\
        \  let acc = ref 0.0 in\n\
        \  acc := !acc +. dt;\n\
        \  !acc\n"))

(* --- R17: per-call allocation ------------------------------------------ *)

let r17_fires () =
  check_sites "option construction in a hot function fires"
    ~only:[ "R17" ]
    [ ("fixture.ml", 1, "R17") ]
    "let[@ncc.hot] wrap x = Some x\n";
  check_sites "list cons in a hot function fires" ~only:[ "R17" ]
    [ ("fixture.ml", 1, "R17") ]
    "let[@ncc.hot] push x xs = x :: xs\n";
  check_sites "string building in a hot function fires" ~only:[ "R17" ]
    [ ("fixture.ml", 1, "R17") ]
    "let[@ncc.hot] label a b = a ^ b\n";
  check_sites "closure literal inside a hot loop fires" ~only:[ "R17" ]
    [ ("fixture.ml", 3, "R17") ]
    "let[@ncc.hot] sweep n (dst : (unit -> int) array) =\n\
    \  for i = 0 to n - 1 do\n\
    \    dst.(i) <- (fun () -> i)\n\
    \  done\n"

(* The shape that hid per-call closures in the event heap: a local
   [let rec] sift capturing the heap it walks. *)
let r17_local_fn_fires () =
  check_sites "local function capturing a caller local fires" ~only:[ "R17" ]
    [ ("fixture.ml", 3, "R17") ]
    "module Sim = struct module Heap = struct\n\
    \  let push (a : int array) i =\n\
    \    let rec up j = if j > 0 && a.(j) < a.(j - 1) then up (j - 1) in\n\
    \    up i\n\
     end end\n";
  check_sites "capturing local function in a hot callee fires as R18"
    ~only:[ "R17"; "R18" ]
    [ ("fixture.ml", 2, "R18") ]
    "let count (a : int array) x =\n\
    \  let rec go i n = if i < 0 then n else go (i - 1) (if a.(i) = x then n + 1 else n) in\n\
    \  go (Array.length a - 1) 0\n\
     let[@ncc.hot] entry a = count a 3\n"

let r17_local_fn_clean () =
  check_sites "the lifted function stays clean" ~only:[ "R17"; "R18" ] []
    "module Sim = struct module Heap = struct\n\
    \  let rec up (a : int array) j = if j > 0 && a.(j) < a.(j - 1) then up a (j - 1)\n\
    \  let push a i = up a i\n\
     end end\n";
  check_sites "a local function reading only its own parameters stays clean"
    ~only:[ "R17"; "R18" ] []
    "let limit = 8\n\
     let[@ncc.hot] clamp xs =\n\
    \  let rec go acc = function [] -> acc | x :: r -> go (acc + min x limit) r in\n\
    \  go 0 xs\n"

let r17_pool_submit () =
  (* the satellite case: a closure literal handed to Pool.submit from
     a hot function is a fresh closure per call *)
  check_sites "hot closure passed to Pool.submit fires" ~only:[ "R17" ]
    [ ("fixture.ml", 7, "R17") ]
    (pool_stub
   ^ "let[@ncc.hot] dispatch x =\n  Pool.submit pool (fun () -> ignore x)\n");
  check_sites "cold closure passed to Pool.submit stays clean"
    ~only:[ "R17" ] []
    (pool_stub ^ "let dispatch x =\n  Pool.submit pool (fun () -> ignore x)\n")

let r17_cold_regions () =
  check_sites "allocation under a tracing guard stays clean"
    ~only:[ "R17" ]
    []
    "module Trace = struct\n\
    \  let active () = false\n\
     end\n\
     let[@ncc.hot] send x =\n\
    \  if Trace.active () then print_string (string_of_int x ^ \"!\")\n"

let r17_clean () =
  check_sites "field reads and arithmetic stay clean" ~only:[ "R17" ] []
    "type q = { mutable head : int; mutable len : int }\n\
     let[@ncc.hot] advance q = q.head <- q.head + 1; q.len <- q.len - 1\n";
  check_sites "the same allocations are fine in cold code" ~only:[ "R17" ] []
    "let wrap x = Some x\nlet push x xs = x :: xs\nlet label a b = a ^ b\n"

let r17_waived () =
  Alcotest.(check (list (triple string int string)))
    "a waiver silences R17 at the site" []
    (full_sites ~only:[ "R17" ]
       ("let[@ncc.hot] wrap x =\n  " ^ kw
      ^ " allow R17 — compat API: callers expect an option *)\n  Some x\n"))

(* Table construction: a hot function that builds a Hashtbl, Queue,
   Stack or Buffer per call pays for the whole table each time. *)
let r17_tables () =
  check_sites "a table built in a hot function fires" ~only:[ "R17" ]
    [ ("fixture.ml", 2, "R17"); ("fixture.ml", 3, "R17") ]
    "let[@ncc.hot] decide xs =\n\
    \  let seen = Hashtbl.create 8 in\n\
    \  let q = Queue.create () in\n\
    \  List.iter (fun x -> Hashtbl.replace seen x (); Queue.push x q) xs;\n\
    \  Hashtbl.length seen + Queue.length q\n";
  check_sites "a table built in a hot callee fires as R18" ~only:[ "R17"; "R18" ]
    [ ("fixture.ml", 1, "R18") ]
    "let scratch () = Buffer.create 16\n\
     let[@ncc.hot] entry () = Buffer.length (scratch ())\n";
  check_sites "a table built in cold code stays clean" ~only:[ "R17"; "R18" ] []
    "let index xs =\n\
    \  let t = Hashtbl.create 8 in\n\
    \  List.iter (fun x -> Hashtbl.replace t x ()) xs;\n\
    \  Stack.create (), t\n";
  Alcotest.(check (list (triple string int string)))
    "a waiver silences the table site" []
    (full_sites ~only:[ "R17" ]
       ("let[@ncc.hot] report xs =\n  " ^ kw
      ^ " allow R17 — one buffer per report, not per event *)\n\
        \  let b = Buffer.create 64 in\n\
        \  List.iter (Buffer.add_string b) xs;\n\
        \  Buffer.contents b\n"))

(* --- R18: hotness propagation ------------------------------------------ *)

let r18_fires () =
  check_sites "allocation in a transitively hot callee fires as R18"
    ~only:[ "R18" ]
    [ ("fixture.ml", 1, "R18") ]
    "let helper x = Some x\nlet[@ncc.hot] entry x = helper x\n";
  (* chain evidence: entry -> callee -> site *)
  match
    findings ~only:[ "R18" ] ~file:"fixture.ml"
      "let deep x = x :: []\n\
       let helper x = deep x\n\
       let[@ncc.hot] entry x = helper x\n"
  with
  | [ f ] ->
    Alcotest.(check (list string))
      "BFS chain names every hop"
      [ "Fixture.entry"; "Fixture.helper"; "Fixture.deep";
        "list cell construction (one block per call) (fixture.ml:1)" ]
      f.Lint.Engine.chain
  | fs -> Alcotest.failf "expected 1 R18 finding, got %d" (List.length fs)

let r18_module_alias () =
  (* the satellite case: the hot entry reaches the callee through a
     module alias (module I = Impl); the alias must resolve or the
     chain breaks at the module boundary *)
  check_sites "hot entry behind a module alias still propagates"
    ~only:[ "R18" ]
    [ ("fixture.ml", 1, "R18") ]
    "module Impl = struct let helper x = Some x end\n\
     module I = Impl\n\
     module Sim = struct module Engine = struct\n\
    \  let run x = I.helper x\n\
     end end\n";
  check_sites "seeded module reached through an alias is still hot"
    ~only:[ "R17" ]
    [ ("fixture.ml", 2, "R17") ]
    "module Sim = struct module Heap = struct\n\
    \  let push h x = ignore h; Some x\n\
     end end\n\
     module H = Sim.Heap\n\
     let use h x = H.push h x\n"

let r18_dead_branch () =
  (* the satellite case: a callee only reachable through a dead branch
     must stay cold *)
  check_sites "callee behind [if false] stays cold" ~only:[ "R18" ] []
    "let helper x = Some x\n\
     let[@ncc.hot] entry x = if false then ignore (helper x)\n";
  check_sites "the same callee behind [if true] is hot" ~only:[ "R18" ]
    [ ("fixture.ml", 1, "R18") ]
    "let helper x = Some x\n\
     let[@ncc.hot] entry x = if true then ignore (helper x)\n";
  check_sites "callee only referenced under a tracing guard stays cold"
    ~only:[ "R18" ]
    []
    "module Trace = struct let active () = false end\n\
     let describe x = Some x\n\
     let[@ncc.hot] entry x = if Trace.active () then ignore (describe x)\n"

let r18_waived () =
  Alcotest.(check (list (triple string int string)))
    "a waiver at the allocation site silences R18" []
    (full_sites ~only:[ "R18" ]
       ("let helper x =\n  " ^ kw
      ^ " allow R18 — result option is the API *)\n  Some x\n\
         let[@ncc.hot] entry x = helper x\n"))

(* --- R19: hot-annotation hygiene --------------------------------------- *)

let r19_fires () =
  check_sites "annotated non-function fires" ~only:[ "R19" ]
    [ ("fixture.ml", 1, "R19") ]
    "let[@ncc.hot] tuning = 0.99\nlet use () = tuning\n";
  check_sites "annotated function nothing references fires"
    ~only:[ "R19" ]
    [ ("fixture.ml", 1, "R19") ]
    "let[@ncc.hot] orphan x = x + 1\n"

let r19_clean () =
  check_sites "annotated and referenced function is clean" ~only:[ "R19" ]
    []
    "let[@ncc.hot] step x = x + 1\nlet drive xs = List.map step xs\n";
  check_sites "seed-listed functions need no callers" ~only:[ "R19" ] []
    "module Sim = struct module Engine = struct\n\
    \  let run x = x\n\
     end end\n"

let r19_waived () =
  Alcotest.(check (list (triple string int string)))
    "a waiver silences R19 on the annotation" []
    (full_sites ~only:[ "R19" ]
       (kw
      ^ " allow R19 — entry point of the next PR's subsystem *)\n\
         let[@ncc.hot] orphan x = x + 1\n"))

let suite =
  [
    Alcotest.test_case "R16 fires" `Quick r16_fires;
    Alcotest.test_case "R16 clean" `Quick r16_clean;
    Alcotest.test_case "R16 waived" `Quick r16_waived;
    Alcotest.test_case "R17 fires" `Quick r17_fires;
    Alcotest.test_case "R17 local function fires" `Quick r17_local_fn_fires;
    Alcotest.test_case "R17 local function clean" `Quick r17_local_fn_clean;
    Alcotest.test_case "R17 pool submit" `Quick r17_pool_submit;
    Alcotest.test_case "R17 cold regions" `Quick r17_cold_regions;
    Alcotest.test_case "R17 clean" `Quick r17_clean;
    Alcotest.test_case "R17 waived" `Quick r17_waived;
    Alcotest.test_case "R17 table construction" `Quick r17_tables;
    Alcotest.test_case "R18 fires with chain" `Quick r18_fires;
    Alcotest.test_case "R18 module alias" `Quick r18_module_alias;
    Alcotest.test_case "R18 dead branch" `Quick r18_dead_branch;
    Alcotest.test_case "R18 waived" `Quick r18_waived;
    Alcotest.test_case "R19 fires" `Quick r19_fires;
    Alcotest.test_case "R19 clean" `Quick r19_clean;
    Alcotest.test_case "R19 waived" `Quick r19_waived;
  ]
