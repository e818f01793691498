(* Benchmark entry point: regenerates every table and figure of the
   paper's evaluation (§5) on the simulated testbed, then runs Bechamel
   microbenchmarks of the core primitives.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- quick        # everything, small scale
     dune exec bench/main.exe -- fig6a fig8   # selected experiments
     dune exec bench/main.exe -- micro        # microbenchmarks only *)

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let quick = ref false

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let jobs = ref 1

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let check_override : Harness.Runner.check_level option ref = ref None

(* --jobs 0 means one worker per available core. *)
let njobs () = if !jobs = 0 then Harness.Pool.cpu_count () else max 1 !jobs

(* Quick runs stream-check every history by default (the scale's
   [check] field); --check on|ser|off overrides either tier. *)
let scale () =
  let s = if !quick then Experiments.quick_scale else Experiments.full_scale in
  match !check_override with
  | None -> s
  | Some c -> { s with Experiments.check = c }

(* --- Bechamel microbenchmarks of the core primitives ----------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_string "\n== Microbenchmarks (core primitives) ==\n";
  let store_write =
    Test.make ~name:"store.write+commit x100"
      (Staged.stage (fun () ->
           let s = Mvstore.Store.create () in
           for i = 1 to 100 do
             let v =
               Mvstore.Store.write s (i mod 10) i
                 ~ts:(Kernel.Ts.make ~time:i ~cid:1)
                 ~writer:i
             in
             Mvstore.Store.commit_version v
           done))
  in
  let store_read =
    let s = Mvstore.Store.create () in
    for i = 1 to 10 do
      Mvstore.Store.commit_version
        (Mvstore.Store.write s i i ~ts:(Kernel.Ts.make ~time:i ~cid:1) ~writer:i)
    done;
    Test.make ~name:"store.read x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             ignore (Mvstore.Store.read s (i mod 10) ~ts:(Kernel.Ts.make ~time:i ~cid:2))
           done))
  in
  let safeguard =
    let results =
      List.init 16 (fun i ->
          {
            Ncc.Msg.r_key = i;
            r_value = i;
            r_vid = i;
            r_tw = Kernel.Ts.make ~time:10 ~cid:1;
            r_tr = Kernel.Ts.make ~time:20 ~cid:1;
            r_is_write = i mod 4 = 0;
            r_prev_vid = 0;
          })
    in
    Test.make ~name:"safeguard check (16 pairs)"
      (Staged.stage (fun () -> ignore (Ncc.Client.safeguard [ results ])))
  in
  (* The engine's queue (the wheel): steady-state event churn against a
     persistent queue holding N pending events, at 1k / 100k / 1M. Each
     event reschedules itself at popped time + span, where the span is
     256 ticks of 1us at 1k, 1,000 at 100k and 10,000 at 1M; each run
     covers [step], the time in which 100 events come due. Up to 100k
     every reschedule lands in the wheel's 4,096-slot window (O(1)); at
     1M it lands past the window, in the overflow heap, and the engine
     pays the heap's sift plus its own refill. *)
  let engine_churn =
    List.map
      (fun (tag, n) ->
        let span_ticks = max 256 (n / 100) in
        let span = float_of_int span_ticks *. 1e-6 in
        let prio i = float_of_int (i * 7919 mod span_ticks) *. 1e-6 in
        let e = Sim.Engine.create () in
        let step = 100.0 *. span /. float_of_int n in
        let rec tick () = Sim.Engine.schedule e ~delay:span tick in
        for i = 1 to n do
          Sim.Engine.schedule_at e ~time:(prio i) tick
        done;
        Test.make ~name:(Printf.sprintf "engine.wheel churn %s" tag)
          (Staged.stage (fun () ->
               Sim.Engine.run ~until:(Sim.Engine.now e +. step) e)))
      [ ("1k", 1_000); ("100k", 100_000); ("1M", 1_000_000) ]
  in
  (* The in-flight message arena: ping-pong one message at a time
     through the real network runtime (send + full dispatch, zero words
     allocated per message at steady state). *)
  let net_arena =
    let topo =
      Cluster.Topology.make ~replicas_per_server:0 ~n_servers:1 ~n_clients:1 ()
    in
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.create 1 in
    let latency = Cluster.Latency.uniform ~one_way:1e-4 ~jitter_mean:1e-6 in
    let net =
      Cluster.Net.create engine rng topo ~latency
        ~clock_of:(fun _ -> Sim.Clock.perfect)
    in
    let served = ref 0 in
    Cluster.Net.set_handler net 0 ~cost:(fun _ -> 10e-6)
      ~handler:(fun ~src:_ _ -> incr served);
    Test.make ~name:"net.arena send+deliver x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             Cluster.Net.send net ~src:1 ~dst:0 i;
             Sim.Engine.run engine
           done))
  in
  let zipf =
    let z = Sim.Rng.zipf_create ~n:1_000_000 ~theta:0.8 in
    let r = Sim.Rng.create 1 in
    Test.make ~name:"zipf draw x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Sim.Rng.zipf_draw r z)
           done))
  in
  (* The atlas Zipf memo: a grid re-instantiates the same (n, theta)
     table once per (protocol x seed) cell, and each zipf_create pays
     the zeta partial sum over all n keys. The memo hit — an assoc-list
     probe over the few distinct tables a sweep ever holds — is what
     cells actually pay after the driver's sequential prewarm. Sized at
     the atlas default key space. *)
  let zipf_table_memo_hit =
    let m = Atlas.Driver.Zipf_memo.create () in
    ignore (Atlas.Driver.Zipf_memo.get m ~n:100_000 ~theta:0.8);
    Test.make ~name:"atlas zipf table memo hit"
      (Staged.stage (fun () ->
           ignore (Atlas.Driver.Zipf_memo.get m ~n:100_000 ~theta:0.8)))
  in
  (* Read lookup on a deep chain: the tw binary search over a
     256-version chain. *)
  let store_lookup_deep =
    let s = Mvstore.Store.create () in
    for i = 1 to 256 do
      Mvstore.Store.commit_version
        (Mvstore.Store.write s 1 i ~ts:(Kernel.Ts.make ~time:i ~cid:1) ~writer:i)
    done;
    Test.make ~name:"store.version_at 256-chain x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             ignore
               (Mvstore.Store.version_at s 1
                  ~ts:(Kernel.Ts.make ~time:(i * 2) ~cid:2))
           done))
  in
  (* Message dispatch through the fault-free network runtime (the
     preallocated-completion fast path): one node servicing a burst. *)
  let net_dispatch =
    let topo = Cluster.Topology.make ~replicas_per_server:0 ~n_servers:1 ~n_clients:1 () in
    Test.make ~name:"net.dispatch x100"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let rng = Sim.Rng.create 1 in
           let latency = Cluster.Latency.uniform ~one_way:1e-4 ~jitter_mean:1e-6 in
           let net =
             Cluster.Net.create engine rng topo ~latency
               ~clock_of:(fun _ -> Sim.Clock.perfect)
           in
           let served = ref 0 in
           Cluster.Net.set_handler net 0 ~cost:(fun _ -> 10e-6)
             ~handler:(fun ~src:_ _ -> incr served);
           for i = 1 to 100 do
             Cluster.Net.send net ~src:1 ~dst:0 i
           done;
           Sim.Engine.run engine;
           assert (!served = 100)))
  in
  let checker =
    Test.make ~name:"checker 1k-txn history"
      (Staged.stage (fun () ->
           let t = Checker.Rsg.create () in
           for i = 1 to 1000 do
             Checker.Rsg.record_commit t ~txn:i
               ~start:(float_of_int (2 * i))
               ~finish:(float_of_int ((2 * i) + 1))
               ~reads:[ (1, 99 + i) ]
               ~writes:[ (1, 100 + i) ]
           done;
           Checker.Rsg.record_version_order t 1 (List.init 1001 (fun i -> 100 + i));
           match Checker.Rsg.check t ~strict:true with
           | Checker.Verdict.Ok -> ()
           | Checker.Verdict.Violation a ->
             failwith (Checker.Verdict.anomaly_to_string a)))
  in
  (* Per-commit cost of the streaming checker on the same serial
     history: version announcement + record + amortized epoch checks
     and retirement with the default-ish window. Divide by 1000 for
     the per-commit figure the docs quote. *)
  let checker_stream =
    Test.make ~name:"checker.stream 1k-commit feed"
      (Staged.stage (fun () ->
           let step = ref 0 in
           let t =
             Checker.Stream.create ~epoch:256
               ~watermark:(fun () -> float_of_int (2 * (!step + 1)))
               ()
           in
           Checker.Stream.observe_version t ~key:1 ~vid:100 ~writer:0
             ~prev:Kernel.Types.no_vid ~next:Kernel.Types.no_vid;
           for i = 1 to 1000 do
             step := i;
             Checker.Stream.observe_version t ~key:1 ~vid:(100 + i) ~writer:i
               ~prev:(99 + i) ~next:Kernel.Types.no_vid;
             Checker.Stream.observe_commit t ~txn:i
               ~start:(float_of_int (2 * i))
               ~finish:(float_of_int ((2 * i) + 1))
               ~reads:[ (1, 99 + i, 0) ]
               ~writes:[ (1, 100 + i) ]
           done;
           match Checker.Stream.finalize t with
           | Checker.Verdict.Ok -> ()
           | Checker.Verdict.Violation a ->
             failwith (Checker.Verdict.anomaly_to_string a)))
  in
  let tests =
    [
      store_write;
      store_read;
      store_lookup_deep;
      net_dispatch;
      safeguard;
      net_arena;
      zipf;
      zipf_table_memo_hit;
      checker;
      checker_stream;
    ]
    @ engine_churn
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  (* Each estimate also lands in BENCH_*.json as a micro row. Micro
     rows are host timings (not deterministic), so parity byte-diffs of
     the JSON must select experiments that exclude [micro]. *)
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let rows = ref [] in
      Kernel.Detmap.iter_sorted
        (fun sub raw ->
          match Analyze.one ols instance raw with
          | ols_result ->
            (match Analyze.OLS.estimates ols_result with
             | Some [ est ] ->
               Printf.printf "%-36s %12.1f ns/run\n" sub est;
               rows := Harness.Report.micro_row ~name:sub ~ns_per_run:est :: !rows
             | Some _ | None -> Printf.printf "%-36s (no estimate)\n" sub)
          | exception e ->
            Printf.printf "%-36s (failed: %s)\n" sub (Printexc.to_string e))
        results;
      List.rev !rows)
    tests

(* --- GC telemetry: allocation volume of a simulation run --------------- *)

(* One NCC run, reported as a gc: row from the runner's GC gauges
   (minor words allocated, major collections, top heap words).
   Host-dependent figures, like micro rows: allocation counts shift
   with the compiler and runtime, so parity byte-diffs must select
   experiments that exclude [gcstats]. *)
let gcstats () =
  print_string "\n== GC telemetry (simulation runs) ==\n";
  let s = scale () in
  let base = Experiments.base_cfg s in
  let base =
    { base with Harness.Runner.offered_load = (if !quick then 4_000. else 10_000.) }
  in
  let mk =
    match Workload.Registry.find ~n_servers:s.Experiments.n_servers "google-f1" with
    | Some mk -> mk
    | None -> failwith "gcstats: google-f1 workload missing"
  in
  let mx = Obs.Metrics.create () in
  let r = Harness.Runner.run ~label:"NCC" ~metrics:mx Ncc.protocol (mk ()) base in
  let gauge g =
    match List.assoc_opt (g, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx) with
    | Some v -> v
    | None -> 0.0
  in
  let minor_words = gauge "gc.minor_words" in
  let major = int_of_float (gauge "gc.major_collections") in
  let top_heap = int_of_float (gauge "gc.top_heap_words") in
  Printf.printf
    "%-24s committed=%d  minor_words=%.3e  words/commit=%.0f  majors=%d  top_heap=%d\n"
    "NCC" r.Harness.Runner.committed minor_words
    (if r.Harness.Runner.committed = 0 then 0.0
     else minor_words /. float_of_int r.Harness.Runner.committed)
    major top_heap;
  [
    Harness.Report.gc_row ~experiment:"NCC" ~minor_words ~major_collections:major
      ~top_heap_words:top_heap;
  ]

(* --- analyzer cost: the lint engine, timed ----------------------------- *)

(* One full lint pass (every rule, R1-R19, plus waivers) over the
   workspace's .cmt files, loading included, reported as the
   "lint.typed" micro row, plus a run restricted to the allocation
   plane R16-R19 over the already-loaded units as "lint.alloc", so
   analyzer cost is tracked next to the primitive timings. Host
   wall-clock figures, like every micro row: parity byte-diffs must
   select experiments that exclude them. Contributes no rows when no
   build tree is visible (an installed binary run outside the
   workspace). *)
let lint () =
  let root = "_build/default" in
  if not (Sys.file_exists root && Sys.is_directory root) then begin
    Printf.printf "lint.typed: no %s under the cwd; skipping\n" root;
    []
  end
  else begin
    let rec walk path acc =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.sort String.compare
        |> List.fold_left (fun acc n -> walk (Filename.concat path n) acc) acc
      else if Filename.check_suffix path ".cmt" then path :: acc
      else acc
    in
    let cmts = List.rev (walk root []) in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let t0 = Unix.gettimeofday () in
    let findings = Lint.Typed_engine.lint_cmts cmts in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.printf "%-36s %12.1f ns/run  (%d units, %d findings)\n"
      "lint.typed" (elapsed *. 1e9) (List.length cmts) (List.length findings);
    let units, _ = Lint.Typed_engine.load_units cmts in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let t0 = Unix.gettimeofday () in
    let alloc_findings =
      Lint.Typed_engine.lint_units ~only:[ "R16"; "R17"; "R18"; "R19" ] units
    in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let elapsed_alloc = Unix.gettimeofday () -. t0 in
    Printf.printf "%-36s %12.1f ns/run  (%d units, %d findings)\n"
      "lint.alloc" (elapsed_alloc *. 1e9) (List.length units)
      (List.length alloc_findings);
    [
      Harness.Report.micro_row ~name:"lint.typed" ~ns_per_run:(elapsed *. 1e9);
      Harness.Report.micro_row ~name:"lint.alloc"
        ~ns_per_run:(elapsed_alloc *. 1e9);
    ]
  end

(* --- driver ----------------------------------------------------------- *)

let all_experiments =
  List.map
    (fun (name, fig) -> (name, fun () -> fig ~jobs:(njobs ()) ~quick:!quick (scale ())))
    Experiments.figures
  @ [ ("micro", micro); ("gcstats", gcstats); ("lint", lint) ]

let () =
  let set_jobs n =
    match int_of_string_opt n with
    | Some j -> jobs := j
    | None ->
      Printf.eprintf "--jobs wants an integer, got %S\n" n;
      exit 2
  in
  let rec parse = function
    | [] -> []
    | "quick" :: rest ->
      quick := true;
      parse rest
    | ("-j" | "--jobs") :: n :: rest ->
      set_jobs n;
      parse rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      parse rest
    | "--check" :: lvl :: rest ->
      (match List.assoc_opt lvl Harness.Runner.check_levels with
       | Some c -> check_override := Some c
       | None ->
         Printf.eprintf "unknown --check level %S (want %s)\n" lvl
           (String.concat ", " (List.map fst Harness.Runner.check_levels));
         exit 2);
      parse rest
    | arg :: rest -> arg :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> all_experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" n
              (String.concat ", " (List.map fst all_experiments));
            exit 2)
        names
  in
  (* The output file is opened before the first run, so an unwritable
     directory fails at once rather than after the whole suite. *)
  let suite = if !quick then "quick" else "full" in
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let oc =
    try open_out path
    with Sys_error e ->
      Printf.eprintf "cannot write %s\n" e;
      exit 2
  in
  Printf.printf "NCC reproduction benchmarks (%s scale, %d job%s)\n" suite (njobs ())
    (if njobs () = 1 then "" else "s");
  let rows =
    List.concat_map
      (fun (name, f) ->
        (* ncc-lint: allow R2 — wall-clock times the bench harness itself *)
        let t0 = Unix.gettimeofday () in
        let rows = f () in
        (* ncc-lint: allow R2 — wall-clock times the bench harness itself *)
        let elapsed = Unix.gettimeofday () -. t0 in
        Printf.printf "[%s done in %.1fs host wall-clock — not simulated time]\n%!"
          name elapsed;
        rows)
      selected
  in
  (* Machine-readable mirror of the run: every simulated result as one
     row, for CI artifacts and cross-run diffing. *)
  output_string oc (Harness.Report.bench_doc ~suite rows);
  close_out oc;
  Printf.printf "[wrote %s: %d rows]\n" path (List.length rows)
