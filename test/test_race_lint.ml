(* Fixture tests for the race plane (lib/lint/race_engine): R12's
   closure half (captured-local and mutable-field escapes, which the
   retired toplevel-only rule R11 provably missed), its safe sinks
   (Atomic, mutex guards, per-slot writes), R13 mixed atomic/plain
   discipline, R14 lock discipline (leak + double-acquire with chain
   evidence), and R15 DLS reachability — each firing, staying quiet on
   the clean equivalent, and silenced by a waiver pragma. The
   converted Pool idioms (guarded queue worker, per-slot merge) are
   replicated verbatim as regression fixtures that must stay clean.

   Fixtures typecheck in-process against the stdlib environment
   (Typed_engine.check_impl); Domain, Atomic, Mutex and Queue are all
   stdlib, so the real concurrency primitives appear in the fixtures.

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

let typed ?only ~file src =
  Lint.Typed_engine.lint_units ?only [ unit_of ~file src ]

let sites ?only ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (typed ?only ~file src)

let check_sites name ?only ?file expected src =
  Alcotest.(check (list (triple string int string)))
    name expected
    (sites ?only ?file src)

(* Full pipeline (every rule, waivers applied, unused ones reported),
   as bin/ncc_lint runs it. *)
let full_sites ?(file = "fixture.ml") src =
  List.map
    (fun (f : Lint.Engine.finding) -> (f.Lint.Engine.file, f.line, f.rule))
    (Lint.Typed_engine.lint_source ~file src)

let pool_stub =
  "module Pool = struct\n\
  \  let map ~jobs:_ f xs = List.map f xs\n\
   end\n\n"

(* --- R12, closure half: the delta over retired R11 ------------------ *)

(* The race the old analysis provably missed: [hits] is a *local* ref,
   so there is no toplevel mutable binding for R11's graph walk to
   find — yet every pooled job mutates the one shared cell. The delta
   pair is this fixture (fires) against [r12_graph_*] in
   test_typed_lint.ml (the toplevel shape both generations catch). *)
let captured_local_fixture =
  pool_stub
  ^ "let sweep xs =\n\
    \  let hits = ref 0 in\n\
    \  let _ = Pool.map ~jobs:4 (fun x -> hits := x) xs in\n\
    \  !hits\n"

let r12_captured_local () =
  match typed ~only:[ "R12" ] ~file:"fixture.ml" captured_local_fixture with
  | [ f ] ->
    Alcotest.(check string) "rule" "R12" f.Lint.Engine.rule;
    Alcotest.(check int) "at the escaping access, not the binding" 7
      f.Lint.Engine.line;
    Alcotest.(check bool) "names the captured location and the fix menu" true
      (contains f.Lint.Engine.message "captured hits"
      && contains f.Lint.Engine.message "per-slot");
    (* closure-half findings are site-local: no BFS chain, which is
       how we know the graph half (R11's reach analysis) saw nothing *)
    Alcotest.(check (list string)) "no chain: R11 had nothing to walk" []
      f.Lint.Engine.chain
  | fs ->
    Alcotest.failf "expected exactly one R12 finding, got %d" (List.length fs)

let r12_mutable_field () =
  (* field-sensitive: the escape names "<type>.<field>" rooted at a
     captured value *)
  match
    typed ~only:[ "R12" ] ~file:"fixture.ml"
      (pool_stub
      ^ "type stats = { mutable aborts : int }\n\n\
         let sweep (s : stats) xs =\n\
        \  Pool.map ~jobs:4 (fun _ -> s.aborts <- s.aborts + 1) xs\n")
  with
  | [ f ] ->
    Alcotest.(check int) "at the field write" 8 f.Lint.Engine.line;
    Alcotest.(check bool) "names the field and the captured root" true
      (contains f.Lint.Engine.message "aborts"
      && contains f.Lint.Engine.message "captured s")
  | fs ->
    Alcotest.failf "expected exactly one R12 finding, got %d" (List.length fs)

let r12_container_read () =
  (* reading a shared container from the pool races with any writer *)
  check_sites "captured Hashtbl read under the pool"
    [ ("fixture.ml", 7, "R12") ]
    ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let seen = Hashtbl.create 16 in\n\
      \  Pool.map ~jobs:4 (fun x -> Hashtbl.mem seen x) xs\n")

let r12_safe_sinks () =
  check_sites "Atomic-routed accumulator is safe" [] ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let hits = Atomic.make 0 in\n\
      \  let _ = Pool.map ~jobs:4 (fun x -> Atomic.fetch_and_add hits x) xs in\n\
      \  Atomic.get hits\n");
  check_sites "mutex-guarded region is safe" [] ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  let m = Mutex.create () in\n\
      \  let _ =\n\
      \    Pool.map ~jobs:4\n\
      \      (fun x ->\n\
      \        Mutex.lock m;\n\
      \        Hashtbl.replace tally x x;\n\
      \        Mutex.unlock m)\n\
      \      xs\n\
      \  in\n\
      \  Hashtbl.length tally\n");
  check_sites "Mutex.protect wrapper is safe" [] ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  let m = Mutex.create () in\n\
      \  Pool.map ~jobs:4\n\
      \    (fun x -> Mutex.protect m (fun () -> Hashtbl.replace tally x x))\n\
      \    xs\n");
  (* an alias of a captured location is still the captured location *)
  check_sites "rebinding does not launder the escape"
    [ ("fixture.ml", 10, "R12") ]
    ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  Pool.map ~jobs:4\n\
      \    (fun x ->\n\
      \      let h = tally in\n\
      \      Hashtbl.replace h x x)\n\
      \    xs\n");
  (* same-binding local functions are inlined transitively: a captured
     write two calls below the pooled closure is an escape, unless a
     lock taken on the way guards it *)
  check_sites "captured write two local calls deep"
    [ ("fixture.ml", 7, "R12") ]
    ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  let record x = Hashtbl.replace tally x x in\n\
      \  let step x = record x in\n\
      \  Pool.map ~jobs:4 (fun x -> step x) xs\n");
  (* a function first reached under a lock is checked again where it
     is reached unguarded *)
  check_sites "guarded call does not vouch for an unguarded one"
    [ ("fixture.ml", 8, "R12") ]
    ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  let m = Mutex.create () in\n\
      \  let step x = Hashtbl.replace tally x x in\n\
      \  let unsafe x = step x in\n\
      \  Pool.map ~jobs:2\n\
      \    (fun x -> Mutex.protect m (fun () -> step x); unsafe x)\n\
      \    xs\n");
  check_sites "a lock taken in the callee guards the deeper write" []
    ~only:[ "R12" ]
    (pool_stub
    ^ "let sweep xs =\n\
      \  let tally = Hashtbl.create 16 in\n\
      \  let m = Mutex.create () in\n\
      \  let record x = Hashtbl.replace tally x x in\n\
      \  let step x = Mutex.lock m; record x; Mutex.unlock m in\n\
      \  Pool.map ~jobs:4 (fun x -> step x) xs\n")

(* The converted Pool idioms, replicated shape-for-shape: the per-slot
   submission-order merge and the guarded queue worker. Both must stay
   clean — these are the regression fixtures for the real
   lib/harness/pool.ml sites (which CI lints for real under
   --werror). *)
let r12_pool_idioms_clean () =
  check_sites "per-slot merge at the Atomic.fetch_and_add index" []
    ~only:[ "R12" ]
    "let slot_merge jobs =\n\
    \  let arr = Array.of_list jobs in\n\
    \  let n = Array.length arr in\n\
    \  let out = Array.make n None in\n\
    \  let next = Atomic.make 0 in\n\
    \  let rec worker () =\n\
    \    let i = Atomic.fetch_and_add next 1 in\n\
    \    if i < n then begin\n\
    \      out.(i) <- Some (arr.(i) ());\n\
    \      worker ()\n\
    \    end\n\
    \  in\n\
    \  let doms = [ Domain.spawn worker; Domain.spawn worker ] in\n\
    \  List.iter Domain.join doms;\n\
    \  Array.to_list out\n";
  (* the worker loop: lock held across the branch that pops, released
     on both paths — the bind-time pop must not be re-attributed to
     the unguarded call site of [f] *)
  check_sites "guarded queue worker" [] ~only:[ "R12" ]
    "let queue_worker () =\n\
    \  let q : (unit -> unit) Queue.t = Queue.create () in\n\
    \  let m = Mutex.create () in\n\
    \  let stop = ref false in\n\
    \  let rec loop () =\n\
    \    Mutex.lock m;\n\
    \    if Queue.is_empty q || !stop then Mutex.unlock m\n\
    \    else begin\n\
    \      let f = Queue.pop q in\n\
    \      Mutex.unlock m;\n\
    \      f ();\n\
    \      loop ()\n\
    \    end\n\
    \  in\n\
    \  (Domain.spawn loop, q, m, stop)\n"

let r12_waived () =
  Alcotest.(check (list (triple string int string)))
    "waived captured-local escape" []
    (full_sites
       (pool_stub
       ^ "let sweep xs =\n\
         \  let hits = ref 0 in\n"
       ^ "  " ^ kw
       ^ " allow R12 - fixture: last-writer-wins is acceptable here *)\n\
         \  let _ = Pool.map ~jobs:4 (fun x -> hits := x) xs in\n\
         \  !hits\n"))

(* --- R13: mixed atomic/plain discipline ------------------------------ *)

let r13_fires () =
  check_sites "ref := replaces the Atomic cell" [ ("fixture.ml", 3, "R13") ]
    ~only:[ "R13" ]
    "let make () = ref (Atomic.make 0)\n\n\
     let reset c = c := Atomic.make 1\n";
  check_sites "field write replaces the Atomic cell"
    [ ("fixture.ml", 3, "R13") ]
    ~only:[ "R13" ]
    "type slot = { mutable a : int Atomic.t }\n\n\
     let swap (s : slot) = s.a <- Atomic.make 1\n";
  check_sites "array store replaces the Atomic cell"
    [ ("fixture.ml", 3, "R13") ]
    ~only:[ "R13" ]
    "let make n = Array.init n (fun _ -> Atomic.make 0)\n\n\
     let clobber cells = cells.(0) <- Atomic.make 1\n";
  match
    typed ~only:[ "R13" ] ~file:"fixture.ml"
      "type slot = { mutable a : int Atomic.t }\n\n\
       let swap (s : slot) = s.a <- Atomic.make 1\n"
  with
  | [ f ] ->
    Alcotest.(check bool) "message explains the stale-cell hazard" true
      (contains f.Lint.Engine.message "old cell"
      && contains f.Lint.Engine.message "Atomic.set/exchange")
  | fs -> Alcotest.failf "expected one R13 finding, got %d" (List.length fs)

let r13_clean_and_waived () =
  check_sites "mutating through the cell is the sanctioned shape" []
    ~only:[ "R13" ]
    "let make () = Atomic.make 0\n\n\
     let bump c = Atomic.set c (Atomic.get c + 1)\n";
  check_sites "plain ref of plain int is not R13's business" []
    ~only:[ "R13" ]
    "let tick (c : int ref) = c := !c + 1\n";
  Alcotest.(check (list (triple string int string)))
    "waived cell replacement" []
    (full_sites
       ("type slot = { mutable a : int Atomic.t }\n\n"
       ^ kw
       ^ " allow R13 - fixture: replaced before any domain starts *)\n\
          let swap (s : slot) = s.a <- Atomic.make 1\n"))

(* --- R14: lock discipline -------------------------------------------- *)

let r14_leak () =
  (match
     typed ~only:[ "R14" ] ~file:"fixture.ml"
       "let m = Mutex.create ()\n\n\
        let bad t =\n\
       \  Mutex.lock m;\n\
       \  t + 1\n"
   with
   | [ f ] ->
     Alcotest.(check int) "at the acquire" 4 f.Lint.Engine.line;
     Alcotest.(check bool) "names the mutex, the node and the fix" true
       (contains f.Lint.Engine.message "Fixture.m"
       && contains f.Lint.Engine.message "never released in Fixture.bad"
       && contains f.Lint.Engine.message "Mutex.protect")
   | fs -> Alcotest.failf "expected one R14 finding, got %d" (List.length fs));
  check_sites "lock/unlock pair is balanced" [] ~only:[ "R14" ]
    "let m = Mutex.create ()\n\n\
     let good t =\n\
    \  Mutex.lock m;\n\
    \  let r = t + 1 in\n\
    \  Mutex.unlock m;\n\
    \  r\n";
  check_sites "Fun.protect ~finally release counts" [] ~only:[ "R14" ]
    "let m = Mutex.create ()\n\n\
     let good t =\n\
    \  Mutex.lock m;\n\
    \  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> t + 1)\n";
  check_sites "Mutex.protect is scoped by construction" [] ~only:[ "R14" ]
    "let m = Mutex.create ()\n\n\
     let good t = Mutex.protect m (fun () -> t + 1)\n"

let r14_double_acquire () =
  match
    typed ~only:[ "R14" ] ~file:"fixture.ml"
      "let m = Mutex.create ()\n\n\
       let inner () =\n\
      \  Mutex.lock m;\n\
      \  Mutex.unlock m\n\n\
       let outer () =\n\
      \  Mutex.lock m;\n\
      \  let r = inner () in\n\
      \  Mutex.unlock m;\n\
      \  r\n"
  with
  | [ f ] ->
    Alcotest.(check int) "at the outer acquire" 8 f.Lint.Engine.line;
    Alcotest.(check bool) "explains non-reentrancy" true
      (contains f.Lint.Engine.message "Fixture.outer"
      && contains f.Lint.Engine.message "Fixture.inner"
      && contains f.Lint.Engine.message "not reentrant");
    Alcotest.(check (list string))
      "deterministic chain to the second acquire"
      [ "Fixture.outer"; "Fixture.inner"; "Mutex.lock Fixture.m (fixture.ml:4)" ]
      f.Lint.Engine.chain
  | fs -> Alcotest.failf "expected one R14 finding, got %d" (List.length fs)

let r14_local_mutexes_never_unify () =
  (* two distinct local mutexes must not look like a double-acquire *)
  check_sites "local mutexes are distinct locations" [] ~only:[ "R14" ]
    "let work () =\n\
    \  let a = Mutex.create () in\n\
    \  let b = Mutex.create () in\n\
    \  Mutex.lock a;\n\
    \  Mutex.lock b;\n\
    \  Mutex.unlock b;\n\
    \  Mutex.unlock a\n"

let r14_waived () =
  Alcotest.(check (list (triple string int string)))
    "waived deliberate leak (caller releases)" []
    (full_sites
       ("let m = Mutex.create ()\n\n\
         let acquire_for_caller t =\n"
       ^ "  " ^ kw
       ^ " allow R14 - fixture: ownership transfers to the caller *)\n\
         \  Mutex.lock m;\n\
         \  t + 1\n"))

(* --- R15: DLS reachability ------------------------------------------- *)

let submit_stub =
  "module Pool = struct\n\
  \  let submit ~jobs:_ fs = List.iter (fun f -> f ()) fs\n\
   end\n\n"

let r15_fires () =
  match
    typed ~only:[ "R15" ] ~file:"fixture.ml"
      (submit_stub
      ^ "let key = Domain.DLS.new_key (fun () -> 0)\n\n\
         let sweep fs = Pool.submit ~jobs:2 fs\n\n\
         let stray () = Domain.DLS.get key\n")
  with
  | [ f ] ->
    Alcotest.(check int) "at the DLS access" 9 f.Lint.Engine.line;
    Alcotest.(check bool) "says the pool never reaches it" true
      (contains f.Lint.Engine.message "Domain.DLS.get"
      && contains f.Lint.Engine.message "Fixture.stray"
      && contains f.Lint.Engine.message "never reaches")
  | fs -> Alcotest.failf "expected one R15 finding, got %d" (List.length fs)

let r15_clean () =
  (* reachable from the spawn node: per-domain state doing its job *)
  check_sites "worker-reachable DLS is the sanctioned shape" []
    ~only:[ "R15" ]
    (submit_stub
    ^ "let key = Domain.DLS.new_key (fun () -> 0)\n\n\
       let job () = Domain.DLS.get key\n\n\
       let sweep () = Pool.submit ~jobs:2 [ (fun () -> ignore (job ())) ]\n");
  (* protocol handlers run on worker domains during sweeps *)
  check_sites "handler entry points count as pool-reachable" []
    ~only:[ "R15" ] ~file:"lib/fixture_r15.ml"
    (submit_stub
    ^ "let key = Domain.DLS.new_key (fun () -> 0)\n\n\
       let handle () = Domain.DLS.get key\n\n\
       let sweep fs = Pool.submit ~jobs:2 fs\n");
  (* no domains spawned anywhere: DLS is pointless but harmless, and
     the rule stays silent rather than nagging sequential code *)
  check_sites "silent when the unit set spawns no domains" []
    ~only:[ "R15" ]
    "let key = Domain.DLS.new_key (fun () -> 0)\n\n\
     let stray () = Domain.DLS.get key\n"

let r15_waived () =
  Alcotest.(check (list (triple string int string)))
    "waived main-domain DLS use" []
    (full_sites
       (submit_stub
       ^ "let key = Domain.DLS.new_key (fun () -> 0)\n\n\
          let sweep fs = Pool.submit ~jobs:2 fs\n\n"
       ^ kw
       ^ " allow R15 - fixture: main-domain probe read by design *)\n\
          let stray () = Domain.DLS.get key\n"))

let suite =
  [
    Alcotest.test_case "R12 closure half: captured local (R11's blind spot)"
      `Quick r12_captured_local;
    Alcotest.test_case "R12 closure half: mutable field" `Quick
      r12_mutable_field;
    Alcotest.test_case "R12 closure half: container read" `Quick
      r12_container_read;
    Alcotest.test_case "R12 safe sinks" `Quick r12_safe_sinks;
    Alcotest.test_case "R12 converted Pool idioms stay clean" `Quick
      r12_pool_idioms_clean;
    Alcotest.test_case "R12 waived" `Quick r12_waived;
    Alcotest.test_case "R13 fires" `Quick r13_fires;
    Alcotest.test_case "R13 clean and waived" `Quick r13_clean_and_waived;
    Alcotest.test_case "R14 leak" `Quick r14_leak;
    Alcotest.test_case "R14 double-acquire chain" `Quick r14_double_acquire;
    Alcotest.test_case "R14 local mutexes never unify" `Quick
      r14_local_mutexes_never_unify;
    Alcotest.test_case "R14 waived" `Quick r14_waived;
    Alcotest.test_case "R15 fires" `Quick r15_fires;
    Alcotest.test_case "R15 clean" `Quick r15_clean;
    Alcotest.test_case "R15 waived" `Quick r15_waived;
  ]
