(* Chaos harness: run a protocol under a seeded randomized fault
   schedule and check the resulting history strictly. Each seed fully
   determines the run — workload arrivals, network latencies and the
   fault schedule all derive from it — so a failing seed is a one-line
   reproduction, and the rolling trace digest certifies that a replay
   really did take the same path. *)

type report = {
  protocol : string;
  seed : int;
  committed : int;
  gave_up : int;
  check : string;  (* the checker verdict, verbatim *)
  ok : bool;       (* check passed (commits may still be few) *)
  digest : string; (* hex digest of the full event trace *)
  faults : Cluster.Faults.spec;
}

(* Small cluster, moderate load, short window: high enough contention
   that reordering/duplication bugs surface, short enough that dozens
   of seeds run in seconds. The request timeout is what keeps runs
   live across drops, partitions and crashes. *)
let base_default =
  {
    Runner.default with
    Runner.n_servers = 3;
    n_clients = 6;
    offered_load = 1_200.0;
    duration = 0.3;
    warmup = 0.05;
    drain = 0.4;
    max_inflight = 8;
    (* streaming (windowed) strict check by default: same verdict as
       the post-hoc checker, bounded memory, caught at commit time *)
    check = Runner.Streaming;
    request_timeout = Some 0.01;
  }

let config ?(allow_crashes = true) ?(base = base_default) ~seed () =
  let topo =
    Cluster.Topology.make ~replicas_per_server:base.Runner.replicas_per_server
      ~n_servers:base.Runner.n_servers ~n_clients:base.Runner.n_clients ()
  in
  let nodes = List.init (Cluster.Topology.n_nodes topo) Fun.id in
  let crashable = if allow_crashes then Cluster.Topology.servers topo else [] in
  let horizon = base.Runner.warmup +. base.Runner.duration in
  {
    base with
    Runner.seed;
    faults = Cluster.Faults.random ~seed ~nodes ~crashable ~horizon;
  }

let run ?allow_crashes ?base protocol workload ~seed =
  let cfg = config ?allow_crashes ?base ~seed () in
  Sim.Trace.reset_digest ();
  Sim.Trace.enable_digest ();
  let r = Runner.run protocol workload cfg in
  let digest = Sim.Trace.digest () in
  Sim.Trace.disable_digest ();
  {
    protocol = r.Runner.protocol;
    seed;
    committed = r.Runner.committed;
    gave_up = r.Runner.gave_up;
    check = r.Runner.check_result;
    ok = not (Runner.violated r);
    digest;
    faults = cfg.Runner.faults;
  }

(* Run a whole seed matrix, optionally across domains. Each job is
   self-contained — it builds its own workload from the factory and its
   own config from the seed — and the digest machinery is domain-local,
   so reports are identical for any [jobs]; they come back in the order
   of [seeds]. *)
let run_matrix ?(jobs = 1) ?allow_crashes ?base protocol ~workload ~seeds =
  Pool.map ~jobs
    (fun seed -> run ?allow_crashes ?base protocol (workload ()) ~seed)
    seeds

let replay_command ~protocol ~workload ~seed =
  Printf.sprintf "ncc_sim chaos -p %s -w %s --replay %d" protocol workload seed

let pp_report ppf r =
  Format.fprintf ppf "%s seed=%d committed=%d gave_up=%d digest=%s %s" r.protocol
    r.seed r.committed r.gave_up
    (String.sub r.digest 0 (min 12 (String.length r.digest)))
    (if r.ok then "ok" else "FAIL: " ^ r.check)
