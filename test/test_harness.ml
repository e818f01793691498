(* Harness-level behaviour: runner accounting, the cost model, the
   Testbed embedding API, and an NCC server liveness property (every
   execution eventually gets exactly one reply once everything is
   decided). *)

open Kernel

let cost_monotonic =
  QCheck.Test.make ~name:"cost grows with ops and bytes" ~count:200
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((ops1, b1), (dops, db)) ->
      let c = Harness.Cost.default in
      Harness.Cost.server c ~ops:(ops1 + dops) ~bytes:(b1 + db) ()
      >= Harness.Cost.server c ~ops:ops1 ~bytes:b1 ())

let runner_accounting () =
  let w = Workload.Google_f1.make ~n_keys:1000 () in
  let cfg =
    {
      Harness.Runner.default with
      Harness.Runner.n_servers = 2;
      n_clients = 4;
      offered_load = 500.0;
      duration = 1.0;
      warmup = 0.2;
      drain = 0.5;
    }
  in
  let r = Harness.Runner.run Ncc.protocol w cfg in
  Alcotest.(check bool) "some commits" true (r.Harness.Runner.committed > 100);
  Alcotest.(check bool) "committed <= attempts" true
    (r.Harness.Runner.committed <= r.Harness.Runner.attempts);
  Alcotest.(check (float 1e-6)) "throughput = committed/duration"
    (float_of_int r.Harness.Runner.committed /. cfg.Harness.Runner.duration)
    r.Harness.Runner.throughput;
  Alcotest.(check bool) "messages counted" true
    (r.Harness.Runner.messages > r.Harness.Runner.committed);
  Alcotest.(check bool) "utilization sane" true
    (r.Harness.Runner.max_utilization >= 0.0 && r.Harness.Runner.max_utilization <= 1.0)

(* Two runs with the same seed must produce identical result records
   field-by-field — a stronger oracle than the chaos trace digests,
   and the guard for the Detmap fixes: any surviving dependence on
   hash order surfaces here as a named field diff. The workload is
   constructed afresh per run, as a replaying CLI invocation would. *)
let runner_same_seed_deterministic =
  QCheck.Test.make ~name:"runner same-seed determinism (field-by-field)"
    ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        {
          Harness.Runner.default with
          Harness.Runner.seed;
          n_servers = 3;
          n_clients = 6;
          offered_load = 800.0;
          duration = 0.5;
          warmup = 0.1;
          drain = 0.3;
          check = Harness.Runner.Streaming;
          series_width = Some 0.1;
        }
      in
      let run () =
        Harness.Runner.run Ncc.protocol (Workload.Google_f1.make ~n_keys:500 ()) cfg
      in
      let a = run () in
      let b = run () in
      let open Harness.Runner in
      (* [compare] rather than [=] so float fields equal even if NaN *)
      let feq f = compare (f a) (f b) = 0 in
      let diffs =
        List.filter_map
          (fun (name, eq) -> if eq then None else Some name)
          [
            ("protocol", a.protocol = b.protocol);
            ("workload", a.workload = b.workload);
            ("offered", feq (fun r -> r.offered));
            ("committed", a.committed = b.committed);
            ("gave_up", a.gave_up = b.gave_up);
            ("attempts", a.attempts = b.attempts);
            ("aborts", a.aborts = b.aborts);
            ("dropped", a.dropped = b.dropped);
            ("throughput", feq (fun r -> r.throughput));
            ("mean_latency", feq (fun r -> r.mean_latency));
            ("p50", feq (fun r -> r.p50));
            ("p90", feq (fun r -> r.p90));
            ("p99", feq (fun r -> r.p99));
            ("p999", feq (fun r -> r.p999));
            ("messages", a.messages = b.messages);
            ("msgs_per_commit", feq (fun r -> r.msgs_per_commit));
            ("max_utilization", feq (fun r -> r.max_utilization));
            ("counters", feq (fun r -> r.counters));
            ("series", feq (fun r -> r.series));
            ("check_result", a.check_result = b.check_result);
          ]
      in
      if diffs = [] then true
      else
        QCheck.Test.fail_reportf "same seed, fields differ: %s"
          (String.concat ", " diffs))

(* Utilization is measured over the measurement window, not diluted by
   warmup and drain: a saturated server must report near-1.0. Under the
   old horizon-based division (window + warmup + drain in the
   denominator) this run reports well under 0.7, so this test pins the
   windowed measurement. *)
let utilization_windowed_at_saturation () =
  let w = Workload.Google_f1.make ~n_keys:1000 () in
  let cfg =
    {
      Harness.Runner.default with
      Harness.Runner.n_servers = 2;
      n_clients = 8;
      offered_load = 60_000.0;
      duration = 0.5;
      warmup = 0.2;
      (* long drain: the old horizon-based division would dilute a
         saturated window to well under the 0.85 assertion *)
      drain = 2.0;
    }
  in
  let r = Harness.Runner.run Ncc.protocol w cfg in
  Alcotest.(check bool)
    (Printf.sprintf "saturated server near full utilization (got %.3f)"
       r.Harness.Runner.max_utilization)
    true
    (r.Harness.Runner.max_utilization > 0.85);
  Alcotest.(check bool) "utilization bounded" true
    (r.Harness.Runner.max_utilization <= 1.05)

let testbed_basics () =
  let outcomes = ref 0 in
  let bed =
    Harness.Testbed.make ~n_servers:2 ~n_clients:2 Ncc.protocol
      ~on_outcome:(fun ~client:_ _ -> incr outcomes)
  in
  (match bed.Harness.Testbed.clients with
   | c :: _ ->
     bed.Harness.Testbed.submit ~client:c
       (Txn.make ~client:c [ [ Types.Write (1, 7) ] ]);
     bed.Harness.Testbed.run_until_quiet ();
     Alcotest.(check int) "one outcome" 1 !outcomes;
     let orders = bed.Harness.Testbed.version_orders () in
     Alcotest.(check bool) "version recorded" true
       (List.exists
          (fun (k, vids) -> Kernel.Types.key_eq k 1 && List.length vids = 2)
          orders)
   | [] -> Alcotest.fail "no clients");
  Alcotest.(check_raises) "submit from a server is rejected"
    (Invalid_argument "Testbed.submit: not a client node") (fun () ->
      bed.Harness.Testbed.submit ~client:0 (Txn.make ~client:0 [ [ Types.Read 1 ] ]))

(* Liveness: whatever mix of executions hits an NCC server, once every
   wire transaction is decided, every non-special execution message has
   received exactly one reply, and no pending item or reader remains. *)
let ncc_server_liveness =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 40)
        (triple (1 -- 12) (* wire *) (0 -- 5) (* key *)
           (pair bool (1 -- 1000) (* write? ts *))))
  in
  QCheck.Test.make ~name:"ncc server: all replies out once all decided" ~count:150
    (QCheck.make gen)
    (fun script ->
      let engine = Sim.Engine.create () in
      let replies = Hashtbl.create 64 in
      let server_ref = ref None in
      let ctx =
        {
          Cluster.Net.self = 0;
          engine;
          rng = Sim.Rng.create 1;
          topo = Cluster.Topology.make ~n_servers:1 ~n_clients:1 ();
          clock = Sim.Clock.perfect;
          send =
            (fun ~dst msg ->
              if Kernel.Types.node_eq dst 0 then
                Sim.Engine.schedule engine ~delay:1e-5 (fun () ->
                    Ncc.Server.handle (Option.get !server_ref) ~src:0 msg)
              else
                match msg with
                | Ncc.Msg.Exec_reply r ->
                  Hashtbl.replace replies r.Ncc.Msg.e_wire
                    (1
                    + Option.value ~default:0 (Hashtbl.find_opt replies r.Ncc.Msg.e_wire))
                | _ -> ());
          timer = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
        }
      in
      let server = Ncc.Server.create Ncc.Msg.default_config ctx in
      server_ref := Some server;
      let wires = Hashtbl.create 16 in
      List.iter
        (fun (wire, key, (is_write, t)) ->
          (* successive messages of one wire are successive shots: round
             and cumulative op count grow, as the real coordinator
             stamps them (the server drops true duplicates) *)
          let shot = 1 + Option.value ~default:0 (Hashtbl.find_opt wires wire) in
          Hashtbl.replace wires wire shot;
          let op = if is_write then Types.Write (key, t) else Types.Read key in
          Ncc.Server.handle server ~src:1
            (Ncc.Msg.Exec
               {
                 x_wire = wire;
                 x_round = shot;
                 x_ops = [ op ];
                 x_ts = Ts.make ~time:t ~cid:wire;
                 x_ro = false;
                 x_tro = Ts.zero;
                 x_client_ns = 0;
                 x_backup = 0;
                 x_cohorts = [ 0 ];
                 x_expected_ops = shot;
                 x_is_last = true;
                 x_bytes = 0;
               }))
        script;
      (* decide every wire (commit evens, abort odds), in wire order *)
      Detmap.iter_sorted
        (fun wire _ ->
          Ncc.Server.handle server ~src:1
            (Ncc.Msg.Decide { d_wire = wire; d_commit = wire mod 2 = 0 }))
        wires;
      Sim.Engine.run engine;
      (* every message answered at least once (early aborts can add an
         extra special reply for a wire), nothing pending *)
      let messages_per_wire = Hashtbl.create 16 in
      List.iter
        (fun (wire, _, _) ->
          Hashtbl.replace messages_per_wire wire
            (1 + Option.value ~default:0 (Hashtbl.find_opt messages_per_wire wire)))
        script;
      let all_answered =
        Detmap.fold_sorted
          (fun wire n acc ->
            acc && Option.value ~default:0 (Hashtbl.find_opt replies wire) >= n)
          messages_per_wire true
      in
      (* no row keeps an unsent item or an undecided reader *)
      let no_pending =
        Inttbl.fold_sorted
          (fun _ row acc ->
            acc && row.Ncc.Server.rw_pending = [] && row.Ncc.Server.rw_readers = [])
          server.Ncc.Server.rows true
      in
      let all_decided =
        List.for_all
          (fun (wire, _, _) -> Wires.decided server.Ncc.Server.wires wire)
          script
      in
      all_answered && no_pending && all_decided)

(* Runner.validate: each incoherent config is rejected with its
   message, and every config the repo really runs is accepted. *)
let runner_validate () =
  let module R = Harness.Runner in
  let d = R.default in
  let span name got = Printf.sprintf "%s must be finite and >= 0 (got %s)" name got in
  List.iter
    (fun (cfg, msg) ->
      Alcotest.(check (result unit string)) msg (Error msg) (R.validate cfg))
    [
      ({ d with R.n_servers = 0 }, "n_servers must be at least 1 (got 0)");
      ({ d with R.n_clients = -2 }, "n_clients must be at least 1 (got -2)");
      ({ d with R.replicas_per_server = -1 }, "replicas_per_server must be >= 0 (got -1)");
      ({ d with R.offered_load = -5.0 }, span "offered_load" "-5");
      ({ d with R.offered_load = Float.nan }, span "offered_load" "nan");
      ({ d with R.duration = Float.infinity }, span "duration" "inf");
      ({ d with R.duration = -1.0 }, span "duration" "-1");
      ({ d with R.warmup = -0.5 }, span "warmup" "-0.5");
      ({ d with R.drain = -0.5 }, span "drain" "-0.5");
      ({ d with R.retry_backoff = -1e-3 }, span "retry_backoff" "-0.001");
      ({ d with R.check_window = 0 }, "check_window must be at least 1 (got 0)");
      ( { d with R.request_timeout = Some (-1e-3) },
        "request_timeout must be finite and > 0 (got -0.001)" );
      ({ d with R.series_width = Some 0.0 }, "series_width must be > 0 (got 0)");
      ({ d with R.store_gc = Some (0.0, 4) }, "store_gc period must be > 0 (got 0)");
      ({ d with R.store_gc = Some (1.0, 0) }, "store_gc keep must be at least 1 (got 0)");
      ( { d with R.faults = { Cluster.Faults.none with drop = 1.5 } },
        "faults.drop must be in [0, 1] (got 1.5)" );
      ( { d with R.faults = { Cluster.Faults.none with drop = Float.nan } },
        "faults.drop must be in [0, 1] (got nan)" );
      ( { d with R.faults = { Cluster.Faults.none with duplicate = -0.1 } },
        "faults.duplicate must be in [0, 1] (got -0.1)" );
      ( { d with R.faults = { Cluster.Faults.none with delay_prob = 2.0 } },
        "faults.delay_prob must be in [0, 1] (got 2)" );
      ( { d with R.faults = { Cluster.Faults.none with delay_extra = Float.infinity } },
        "faults.delay_extra must be finite and >= 0 (got inf)" );
      ( { d with R.faults = { Cluster.Faults.none with delay_extra = -1e-3 } },
        "faults.delay_extra must be finite and >= 0 (got -0.001)" );
    ];
  let atlas_cells =
    List.concat_map
      (fun (s : Atlas.Scenario.t) ->
        List.concat_map
          (fun (_, point) ->
            List.concat_map
              (fun quick ->
                List.map
                  (fun check -> Atlas.Driver.cfg_of ~quick ~check point ~seed:1)
                  [ true; false ])
              [ true; false ])
          (Atlas.Knob.expand s.Atlas.Scenario.base s.Atlas.Scenario.axes))
      Atlas.Scenario.all
  in
  List.iteri
    (fun i cfg ->
      Alcotest.(check (result unit string)) (Printf.sprintf "real config %d" i) (Ok ())
        (R.validate cfg))
    ([
       d;
       (* perfbench samples set-up cost with every window at zero *)
       { d with R.warmup = 0.0; duration = 0.0; drain = 0.0 };
       (* perfbench's f1-scale reference point, full and tiny *)
       { d with R.n_servers = 64; n_clients = 10_000; offered_load = 60_000.0;
                check = R.Streaming; check_window = 4096; store_gc = Some (1.0, 4) };
       { d with R.n_servers = 16; n_clients = 400; check = R.Streaming;
                store_gc = Some (0.1, 4) };
       Harness.Chaos.base_default;
       Harness.Chaos.config ~seed:7 ();
       Experiments.base_cfg Experiments.full_scale;
       Experiments.base_cfg Experiments.quick_scale;
     ]
    @ atlas_cells)

(* Random tiny configs, coherent or not, over every check level crossed
   with store GC, zero and negative counts and durations, and request
   timeouts of either sign: each one is either rejected by [validate]
   (and then [run] raises [Invalid_argument] carrying the same message
   before the run starts) or runs to completion without an exception. *)
let runner_validate_or_complete =
  let module R = Harness.Runner in
  let gen =
    let open QCheck.Gen in
    (* mostly legal values, so about half the configs validate *)
    let pick legal illegal = frequency [ (20, oneofl legal); (1, oneofl illegal) ] in
    let* n_servers = pick [ 1; 3 ] [ -1; 0 ] in
    let* n_clients = pick [ 1; 4 ] [ -2; 0 ] in
    let* replicas_per_server = pick [ 0 ] [ -1 ] in
    let* offered_load = pick [ 0.0; 300.0; 900.0 ] [ -50.0; Float.nan ] in
    let* duration = pick [ 0.0; 0.15 ] [ -0.1; Float.infinity ] in
    let* warmup = pick [ 0.0; 0.05 ] [ -0.05 ] in
    let* drain = pick [ 0.0; 0.2 ] [ -0.1 ] in
    let* max_inflight = oneofl [ 0; 1; 4 ] in
    let* max_retries = oneofl [ -1; 0; 5 ] in
    let* retry_backoff = pick [ 0.0; 5e-4 ] [ -1e-3 ] in
    let* check = oneofl (List.map snd R.check_levels) in
    let* check_window = pick [ 1; 64 ] [ -1; 0 ] in
    let* store_gc = pick [ None; Some (0.05, 2) ] [ Some (0.0, 2); Some (0.05, 0) ] in
    let* request_timeout = pick [ None; Some 2e-3 ] [ Some (-2e-3); Some 0.0 ] in
    let* series_width = pick [ None; Some 0.05 ] [ Some (-0.1); Some 0.0 ] in
    let* seed = int_range 0 1_000 in
    return
      {
        R.default with
        R.seed; n_servers; n_clients; replicas_per_server; offered_load; duration;
        warmup; drain; max_inflight; max_retries; retry_backoff; check;
        check_window; store_gc; request_timeout; series_width;
      }
  in
  let print (c : R.config) =
    let opt f = function None -> "none" | Some x -> f x in
    Printf.sprintf
      "seed=%d servers=%d clients=%d replicas=%d load=%g duration=%g warmup=%g \
       drain=%g inflight=%d retries=%d backoff=%g check=%s window=%d \
       store_gc=%s timeout=%s series=%s"
      c.seed c.n_servers c.n_clients c.replicas_per_server c.offered_load c.duration
      c.warmup c.drain c.max_inflight c.max_retries c.retry_backoff
      (fst (List.find (fun (_, l) -> l = c.check) R.check_levels))
      c.check_window
      (opt (fun (p, k) -> Printf.sprintf "%g/%d" p k) c.store_gc)
      (opt string_of_float c.request_timeout)
      (opt string_of_float c.series_width)
  in
  QCheck.Test.make ~name:"runner config: rejected up front or runs clean" ~count:150
    (QCheck.make ~print gen)
    (fun cfg ->
      let run () = R.run Ncc.protocol (Workload.Google_f1.make ~n_keys:200 ()) cfg in
      match R.validate cfg with
      | Error m -> (
        match run () with
        | _ -> QCheck.Test.fail_reportf "rejected (%s) but ran" m
        | exception Invalid_argument s -> String.equal s ("Runner.run: " ^ m))
      | Ok () -> (
        match run () with
        | _ -> true
        | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let suite =
  [
    Alcotest.test_case "runner accounting" `Slow runner_accounting;
    Alcotest.test_case "runner validate table" `Quick runner_validate;
    Alcotest.test_case "windowed utilization at saturation" `Slow
      utilization_windowed_at_saturation;
    Alcotest.test_case "testbed basics" `Quick testbed_basics;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        cost_monotonic;
        ncc_server_liveness;
        runner_same_seed_deterministic;
        runner_validate_or_complete;
      ]
