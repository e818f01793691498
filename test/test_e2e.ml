(* End-to-end simulations checked for (strict) serializability: every
   protocol runs small but adversarial workloads (tiny hot key spaces,
   skewed clocks, asymmetric latencies, multi-shot transactions) and
   the full history goes through the RSG checker. *)

let hot_workload =
  Workload.Micro.make
    {
      Workload.Micro.n_keys = 24;
      zipf_theta = 0.9;
      write_fraction = 0.6;
      ro_keys_min = 1;
      ro_keys_max = 4;
      rw_keys_min = 1;
      rw_keys_max = 5;
      write_ops_fraction = 0.6;
      value_bytes_mean = 128.0;
      value_bytes_stddev = 16.0;
      label = "hot";
    }

(* multi-shot, read-modify-write heavy *)
let multishot_workload =
  let gen rng ~client =
    let key () = Sim.Rng.int rng 16 in
    let shot () =
      let k = key () in
      [ Kernel.Types.Read k; Kernel.Types.Write (k, Workload.Micro.fresh_value ()) ]
    in
    let n = 1 + Sim.Rng.int rng 3 in
    Kernel.Txn.make ~label:"multishot" ~client (List.init n (fun _ -> shot ()))
  in
  { Harness.Workload_sig.name = "multishot"; gen }

let base_cfg seed =
  {
    Harness.Runner.default with
    Harness.Runner.seed;
    n_servers = 4;
    n_clients = 6;
    offered_load = 1500.0;
    duration = 1.0;
    warmup = 0.3;
    drain = 1.5;
    max_clock_offset = 3e-3;
    max_clock_drift = 3e-5;
  }

let run_checked ?(cfg_patch = fun c -> c) protocol workload ~level ~seed =
  let cfg = cfg_patch { (base_cfg seed) with Harness.Runner.check = level } in
  let r = Harness.Runner.run protocol workload cfg in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s seed %d: %s" r.Harness.Runner.protocol
       r.Harness.Runner.workload seed r.Harness.Runner.check_result)
    true
    (String.length r.Harness.Runner.check_result >= 2
    && String.sub r.Harness.Runner.check_result 0 2 = "ok");
  r

let progress r =
  Alcotest.(check bool)
    (Printf.sprintf "%s makes progress" r.Harness.Runner.protocol)
    true (r.Harness.Runner.committed > 50)

let strict_protocols =
  [
    ("NCC", Ncc.protocol);
    ("NCC-RW", Ncc.protocol_rw);
    ("NCC-noSR", Ncc.protocol_no_smart_retry);
    ("NCC-noAAT", Ncc.protocol_no_async_aware);
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("d2PL-WW", Baselines.d2pl_wound_wait);
    ("Janus-CC", Baselines.janus_cc);
  ]

let ser_protocols = [ ("TAPIR-CC", Baselines.tapir_cc); ("MVTO", Baselines.mvto) ]

let strict_hot_cases =
  List.map
    (fun (name, p) ->
      Alcotest.test_case (name ^ " hot strict") `Slow (fun () ->
          List.iter
            (fun seed ->
              progress (run_checked p hot_workload ~level:Harness.Runner.Streaming ~seed))
            [ 1; 2 ]))
    strict_protocols

let ser_hot_cases =
  List.map
    (fun (name, p) ->
      Alcotest.test_case (name ^ " hot serializable") `Slow (fun () ->
          List.iter
            (fun seed ->
              progress
                (run_checked p hot_workload ~level:Harness.Runner.Serializable ~seed))
            [ 1; 2 ]))
    ser_protocols

let multishot_cases =
  List.map
    (fun (name, p) ->
      Alcotest.test_case (name ^ " multishot strict") `Slow (fun () ->
          progress (run_checked p multishot_workload ~level:Harness.Runner.Streaming ~seed:5)))
    [ ("NCC", Ncc.protocol); ("dOCC", Baselines.docc); ("d2PL-WW", Baselines.d2pl_wound_wait) ]

let tpcc_case =
  Alcotest.test_case "NCC tpcc strict" `Slow (fun () ->
      let w = Workload.Tpcc.make ~warehouses_per_server:2 ~n_servers:4 () in
      progress
        (run_checked Ncc.protocol w ~level:Harness.Runner.Streaming ~seed:3
           ~cfg_patch:(fun c -> { c with Harness.Runner.offered_load = 600.0 })))

(* Client-failure recovery (§4.6): all clients stop sending commit
   messages mid-run; the backup coordinators must decide the stuck
   transactions and the history must stay strictly serializable. *)
let recovery_case =
  Alcotest.test_case "NCC recovery after client failures" `Slow (fun () ->
      let fail_at = 0.8 in
      let p =
        Ncc.make_protocol
          ~config:
            {
              Ncc.default_config with
              Ncc.Msg.fail_commits_after = Some fail_at;
              recovery_timeout = Some 0.3;
            }
          ~name:"NCC-failinj" ()
      in
      let r =
        run_checked p hot_workload ~level:Harness.Runner.Streaming ~seed:11
          ~cfg_patch:(fun c -> { c with Harness.Runner.drain = 3.0 })
      in
      progress r;
      Alcotest.(check bool) "recoveries happened" true
        (List.assoc "recoveries" r.Harness.Runner.counters > 0.0))

(* Determinism: identical seeds give identical results. *)
let determinism_case =
  Alcotest.test_case "runs are deterministic" `Slow (fun () ->
      let go () =
        let r =
          Harness.Runner.run Ncc.protocol hot_workload (base_cfg 21)
        in
        (r.Harness.Runner.committed, r.Harness.Runner.attempts, r.Harness.Runner.messages)
      in
      let a = go () and b = go () in
      Alcotest.(check bool) "identical" true (a = b))

let suite =
  strict_hot_cases @ ser_hot_cases @ multishot_cases
  @ [ tpcc_case; recovery_case; determinism_case ]
