(* The benchmark's workloads. All are open loop: Poisson arrivals in
   simulated time at the stated rate and client count. A workload is a
   list of cases, run back to back in one process and aggregated.
   [Tiny] shrinks each to a fraction of a second for the completeness
   test. No case sets [sched] or [check_async], which are slated for
   removal, so every run uses [Runner.default]'s event queue and checks
   inline. *)

module Runner = Harness.Runner

type case = {
  protocol : Harness.Protocol.t;
  workload : unit -> Harness.Workload_sig.t;
  config : Runner.config;
  digest : bool;  (* fold the run's Sim.Trace event stream into a digest *)
}

type size = Full | Tiny

let names = [ "f1-scale"; "tpcc-contended"; "f1-roster"; "f1-chaos" ]
let f1 () = Workload.Google_f1.make ()

let case ?(digest = false) protocol workload config =
  { protocol; workload; config; digest }

(* The reference scale point as `ncc_sim scale` runs it (uniform
   latency, streaming check in 4096-commit epochs, store GC every
   simulated second keeping 4 versions), cut to a fixed batch. The
   drain lets the last arrivals' retries commit: at a few tens of
   milliseconds some seeds leave a transaction unfinished. *)
let f1_scale size seed =
  let n_servers, n_clients, load, txns, gc_period =
    match size with
    | Full -> (64, 10_000, 60_000.0, 40_000.0, 1.0)
    | Tiny -> (16, 400, 8_000.0, 1_600.0, 0.1)
  in
  let duration = txns /. load in
  let warmup = Float.min 0.5 (duration *. 0.05) in
  [
    case Ncc.protocol f1
      {
        Runner.default with
        Runner.seed;
        n_servers;
        n_clients;
        offered_load = load;
        duration;
        warmup;
        drain = 0.5;
        latency = Runner.Uniform { one_way = 250e-6; jitter = 25e-6 };
        check = Runner.Streaming;
        check_window = 4096;
        store_gc = Some (gc_period, 4);
      };
  ]

(* The paper's testbed: 8 servers, 24 clients, asymmetric latency. *)
let paper seed ~load ~duration =
  {
    Runner.default with
    Runner.seed;
    n_servers = 8;
    n_clients = 24;
    offered_load = load;
    warmup = 0.1;
    duration;
    drain = 0.2;
    check = Runner.Streaming;
  }

let tpcc_contended size seed =
  let duration = match size with Full -> 0.9 | Tiny -> 0.05 in
  [
    case Ncc.protocol
      (fun () -> Workload.Tpcc.make ~n_servers:8 ())
      (paper seed ~load:15_000.0 ~duration);
  ]

let f1_roster size seed =
  let duration = match size with Full -> 1.5 | Tiny -> 0.05 in
  List.map
    (fun p -> case p f1 (paper seed ~load:10_000.0 ~duration))
    [ Baselines.docc; Baselines.d2pl_no_wait ]

(* Chaos seeds [seed * n + 1 .. seed * n + n]: seed 0 is seeds 1..n.
   The benchmark's workloads are ones where every arrival commits, so
   the schedules keep partitions, duplication and extra delay but not
   server crashes or random message loss: under either, a few attempts
   in ten thousand never commit, even past a 2 s drain with retries
   uncapped. For the same reason no in-flight or retry cap is left for
   a partition to exhaust. Partitions are cut to a quarter of their
   drawn length: at full length 0.5-1% of transactions stall behind
   one, so the pooled p99 jumps, seed to seed, between the fault-free
   tail (~2.5 ms) and the request-timeout tail (~20 ms); at a quarter,
   about 0.25% stall and the timeout/cancel path still runs. *)
let f1_chaos size seed =
  let n = match size with Full -> 64 | Tiny -> 3 in
  let base =
    {
      Harness.Chaos.base_default with
      Runner.drain = 2.0;
      max_inflight = 1_000;
      max_retries = 1_000_000;
    }
  in
  let quarter (p : Cluster.Faults.partition) =
    { p with pt_until = p.pt_from +. ((p.pt_until -. p.pt_from) /. 4.0) }
  in
  List.init n (fun i ->
      let c =
        Harness.Chaos.config ~allow_crashes:false ~base ~seed:((seed * n) + i + 1) ()
      in
      let f = c.Runner.faults in
      case ~digest:true Ncc.protocol f1
        {
          c with
          Runner.faults =
            { f with drop = 0.0; partitions = List.map quarter f.partitions };
        })

let cases ?(size = Full) ~seed = function
  | "f1-scale" -> f1_scale size seed
  | "tpcc-contended" -> tpcc_contended size seed
  | "f1-roster" -> f1_roster size seed
  | "f1-chaos" -> f1_chaos size seed
  | w -> invalid_arg ("unknown workload " ^ w)
