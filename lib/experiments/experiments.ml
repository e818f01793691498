(* Reproductions of every table and figure in the paper's evaluation
   (§5). Each [figN] function runs the corresponding experiment on the
   simulated cluster, prints the series the paper plots and returns its
   runs as BENCH rows; [figures] is the one table the bench executable
   and `ncc_sim fig` both run.

   Absolute numbers differ from the paper (their substrate was an Azure
   cluster, ours is a calibrated simulator); the claims we reproduce
   are the *shapes*: who saturates first, latency in RTTs, crossovers,
   and the recovery dip. *)

module Runner = Harness.Runner

let strict_protocols =
  [
    ("NCC", Ncc.protocol);
    ("NCC-RW", Ncc.protocol_rw);
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("d2PL-WW", Baselines.d2pl_wound_wait);
    ("Janus-CC", Baselines.janus_cc);
  ]

let serializable_protocols =
  [ ("NCC", Ncc.protocol); ("TAPIR-CC", Baselines.tapir_cc); ("MVTO", Baselines.mvto) ]

(* The simulated testbed: the paper's 8 servers and a pool of open-loop
   clients, with asymmetric datacenter-like delays and skewed clocks.
   [scale] < 1.0 shrinks cluster and load for quick runs. *)
type scale = {
  n_servers : int;
  n_clients : int;
  duration : float;
  warmup : float;
  check : Runner.check_level;
      (* quick tiers stream-check every run by default; the full tier
         keeps checking off so published curves time the protocol alone *)
}

let full_scale =
  {
    n_servers = 8;
    n_clients = 24;
    duration = 2.0;
    warmup = 0.5;
    check = Runner.No_check;
  }

let quick_scale =
  {
    n_servers = 4;
    n_clients = 12;
    duration = 1.0;
    warmup = 0.3;
    check = Runner.Streaming;
  }

let base_cfg ?(seed = 42) (s : scale) =
  {
    Runner.default with
    Runner.seed;
    n_servers = s.n_servers;
    n_clients = s.n_clients;
    duration = s.duration;
    warmup = s.warmup;
    drain = 0.5;
    check = s.check;
    (* checking runs on a background domain so the verdict is free on
       multicore and cannot skew single-run wall-clock *)
    check_async = s.check <> Runner.No_check;
  }

(* In-window abort fraction: aborted attempts over all decided attempts
   (the [attempts] counter also covers warmup and drain, so it is not
   used here). *)
let abort_rate (r : Runner.result) =
  let aborted = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Runner.aborts in
  if aborted + r.Runner.committed = 0 then 0.0
  else float_of_int aborted /. float_of_int (aborted + r.Runner.committed)

(* --- output helpers -------------------------------------------------- *)

let header title = Printf.printf "\n== %s ==\n" title

(* When NCC_CSV_DIR is set, every experiment also writes a plot-ready
   CSV file there. *)
let csv_out name ~columns rows =
  match Sys.getenv_opt "NCC_CSV_DIR" with
  | None -> ()
  | Some dir ->
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc (String.concat "," columns ^ "\n");
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
    close_out oc

let export_curves name curves =
  csv_out name
    ~columns:
      [ "protocol"; "offered"; "throughput"; "p50_ms"; "p99_ms"; "msg_per_txn"; "abort_rate" ]
    (List.concat_map
       (fun (pname, rows) ->
         List.map
           (fun ((_ : float), (r : Runner.result)) ->
             [
               pname;
               Printf.sprintf "%.0f" r.Runner.offered;
               Printf.sprintf "%.0f" r.Runner.throughput;
               Printf.sprintf "%.3f" (r.Runner.p50 *. 1e3);
               Printf.sprintf "%.3f" (r.Runner.p99 *. 1e3);
               Printf.sprintf "%.2f" r.Runner.msgs_per_commit;
               Printf.sprintf "%.4f" (abort_rate r);
             ])
           rows)
       curves)

let print_curve_header () =
  Printf.printf "%-10s %10s %10s %9s %9s %7s %7s %6s\n" "protocol" "offered/s"
    "commits/s" "p50(ms)" "p99(ms)" "msg/txn" "abort%" "util"

let print_row name (r : Runner.result) =
  Printf.printf "%-10s %10.0f %10.0f %9.2f %9.2f %7.1f %6.1f%% %6.2f\n" name
    r.Runner.offered r.Runner.throughput (r.Runner.p50 *. 1e3) (r.Runner.p99 *. 1e3)
    r.Runner.msgs_per_commit
    (100.0 *. abort_rate r)
    r.Runner.max_utilization

(* Each run becomes one BENCH_*.json row; [experiment] names it. *)
let row experiment r = Harness.Report.bench_row ~experiment r

let curve_rows fig curves =
  List.concat_map
    (fun (pname, points) ->
      List.map (fun (load, r) -> row (Printf.sprintf "%s:%s@%.0f" fig pname load) r) points)
    curves

let labeled_rows fig = List.map (fun (label, r) -> row (fig ^ ":" ^ label) r)

(* Quick runs use [quick_scale]'s 4 servers, which saturate at roughly
   half the load of the full scale's 8: sweeps halve their loads, and
   single-load figures pick a lighter operating point. *)
let halved ~quick loads = if quick then List.map (fun l -> l /. 2.0) loads else loads

(* --- sweep fan-out ---------------------------------------------------- *)

(* Every sweep is a flat grid of self-contained (protocol, cell) jobs
   fanned through Harness.Pool and merged back in canonical
   (protocol-major) order. Workloads are constructed *inside* each job,
   never shared across cells: a shared workload instance would let one
   cell's generator state leak into the next (TPC-C's order-id counters
   did exactly that), making a row depend on its position in the sweep
   and on the degree of parallelism. With per-job construction each row
   is independently replayable and identical for any --jobs. *)

let split_at n l =
  let rec go n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: xs -> go (n - 1) (x :: acc) xs
  in
  go n [] l

(* Chunk [rows] back into per-protocol curves ([per] cells each). *)
let regroup ~per protocols rows =
  let rec go rows = function
    | [] -> []
    | (name, _) :: ps ->
      let mine, rest = split_at per rows in
      (name, mine) :: go rest ps
  in
  go rows protocols

(* --- Figure 6: latency vs throughput curves -------------------------- *)

(* Sweep offered load for each protocol; the curve of (committed
   throughput, median latency) is what Fig 6 plots. [workload] is a
   factory invoked once per job (see the fan-out note above). *)
let latency_throughput ?(jobs = 1) ?(protocols = strict_protocols) ~workload ~loads
    scale =
  let cells =
    List.concat_map
      (fun (name, p) -> List.map (fun load -> (name, p, load)) loads)
      protocols
  in
  let rows =
    Harness.Pool.map ~jobs
      (fun (name, p, load) ->
        let cfg = { (base_cfg scale) with Runner.offered_load = load } in
        (load, Runner.run ~label:name p (workload ()) cfg))
      cells
  in
  regroup ~per:(List.length loads) protocols rows

let print_curves curves =
  print_curve_header ();
  List.iter
    (fun (name, rows) ->
      List.iter (fun (_, r) -> print_row name r) rows;
      print_newline ())
    curves

(* One latency/throughput figure: sweep, print, export, rows. *)
let curve_figure ?protocols ~name ~title ~workload ~loads ~jobs ~quick scale =
  header title;
  let curves =
    latency_throughput ~jobs ?protocols ~workload ~loads:(halved ~quick loads) scale
  in
  print_curves curves;
  export_curves name curves;
  curve_rows name curves

let f1_loads = [ 5_000.; 12_000.; 20_000.; 32_000.; 45_000. ]

let fig6b ~jobs ~quick scale =
  curve_figure ~name:"fig6b" ~title:"Fig 6b: Facebook-TAO, latency vs throughput"
    ~workload:(fun () -> Workload.Facebook_tao.make ())
    ~loads:[ 4_000.; 10_000.; 18_000.; 28_000.; 40_000. ]
    ~jobs ~quick scale

(* TAPIR-CC is not evaluated on TPC-C in the paper; same here. *)
let fig6c ~jobs ~quick scale =
  curve_figure ~name:"fig6c"
    ~title:"Fig 6c: TPC-C (New-Order reported), latency vs throughput"
    ~workload:(fun () -> Workload.Tpcc.make ~n_servers:scale.n_servers ())
    ~loads:[ 4_000.; 9_000.; 15_000.; 21_000.; 27_000. ]
    ~jobs ~quick scale

(* --- Figure 7a: write-fraction sweep --------------------------------- *)

(* Each system runs at ~75% of its own peak load while the write
   fraction grows; the paper reports throughput normalized to each
   system's own maximum across the sweep. *)
(* Peak throughputs measured on the default testbed (Fig 6a sweeps);
   each system runs the write-fraction sweep at 75% of its own peak,
   as the paper does. *)
let measured_peak = function
  | "NCC" -> 46_000.0
  | "NCC-sfence" -> 30_000.0
  | "NCC-RW" -> 24_000.0
  | "dOCC" -> 16_000.0
  | "d2PL-NW" -> 24_000.0
  | "d2PL-WW" -> 12_000.0
  | "Janus-CC" -> 16_000.0
  | "TAPIR-CC" -> 24_000.0
  | "MVTO" -> 47_000.0
  | _ -> 20_000.0

let fig7a ~jobs ~quick scale =
  let write_fractions = [ 0.003; 0.01; 0.03; 0.10; 0.30 ] in
  let load_of name = (if quick then 0.5 else 1.0) *. measured_peak name in
  header "Fig 7a: Google-WF, normalized throughput vs write fraction";
  (* NCC appears twice: with the paper's server-granularity read-only
     fence (whose fast-path aborts grow with the write rate — the
     degradation the paper reports) and with the default per-key fence. *)
  let protocols = ("NCC-sfence", Ncc.protocol_server_fence) :: strict_protocols in
  let cells =
    List.concat_map
      (fun (name, p) -> List.map (fun wf -> (name, p, wf)) write_fractions)
      protocols
  in
  let rows =
    Harness.Pool.map ~jobs
      (fun (name, p, wf) ->
        let w = Workload.Google_f1.make_wf ~write_fraction:wf () in
        let cfg =
          (* measured peaks are open-loop back-pressure points
             (~85% of true capacity); 0.9x of that is the paper's
             "~75% load" operating point *)
          { (base_cfg scale) with Runner.offered_load = 0.9 *. load_of name }
        in
        (wf, Runner.run ~label:name p w cfg))
      cells
  in
  let results = regroup ~per:(List.length write_fractions) protocols rows in
  Printf.printf "%-10s" "protocol";
  List.iter (fun wf -> Printf.printf " %8.1f%%" (100.0 *. wf)) write_fractions;
  Printf.printf "   (normalized throughput)\n";
  List.iter
    (fun (name, rows) ->
      let peak =
        List.fold_left (fun acc (_, r) -> Float.max acc r.Runner.throughput) 1.0 rows
      in
      Printf.printf "%-10s" name;
      List.iter (fun (_, r) -> Printf.printf " %9.2f" (r.Runner.throughput /. peak)) rows;
      print_newline ())
    results;
  Printf.printf "%-10s" "(abort %)";
  print_newline ();
  List.iter
    (fun (name, rows) ->
      Printf.printf "%-10s" name;
      List.iter (fun (_, r) -> Printf.printf " %9.1f" (100.0 *. abort_rate r)) rows;
      print_newline ())
    results;
  csv_out "fig7a"
    ~columns:[ "protocol"; "write_fraction"; "throughput"; "abort_rate" ]
    (List.concat_map
       (fun (name, rows) ->
         List.map
           (fun (wf, (r : Runner.result)) ->
             [
               name;
               Printf.sprintf "%.3f" wf;
               Printf.sprintf "%.0f" r.Runner.throughput;
               Printf.sprintf "%.4f" (abort_rate r);
             ])
           rows)
       results);
  curve_rows "fig7a" results

(* --- Figure 7b: serializable baselines -------------------------------- *)

let fig7b ~jobs ~quick scale =
  curve_figure ~protocols:serializable_protocols ~name:"fig7b"
    ~title:"Fig 7b: Google-F1, NCC vs serializable TAPIR-CC / MVTO"
    ~workload:(fun () -> Workload.Google_f1.make ())
    ~loads:f1_loads ~jobs ~quick scale

(* --- Figure 7c: client-failure recovery ------------------------------- *)

let fig7c ~jobs ~quick scale =
  let timeouts = [ 1.0; 3.0 ] in
  let load = if quick then 6_000.0 else 15_000.0 in
  header "Fig 7c: client failures at t=10s, NCC-RW throughput over time";
  let results =
    Harness.Pool.map ~jobs
      (fun timeout ->
        let w = Workload.Google_f1.make () in
        let p =
          Ncc.make_protocol
            ~config:
              {
                Ncc.default_config with
                Ncc.Msg.use_ro = false;
                fail_commits_after = Some 10.0;
                recovery_timeout = Some timeout;
              }
            ~name:(Printf.sprintf "NCC-RW(%.0fs)" timeout)
            ()
        in
        let cfg =
          {
            (base_cfg scale) with
            Runner.offered_load = load;
            warmup = 0.0;
            duration = 20.0;
            drain = 2.0;
            series_width = Some 0.5;
          }
        in
        (timeout, Runner.run p w cfg))
      timeouts
  in
  List.iter
    (fun (timeout, r) ->
      Printf.printf "timeout %.0fs (recoveries=%.0f):\n" timeout
        (Option.value ~default:0.0 (List.assoc_opt "recoveries" r.Runner.counters));
      Printf.printf "  t(s):  ";
      List.iter (fun (t, _) -> if Float.rem t 1.0 < 0.25 then Printf.printf "%6.0f" t) r.Runner.series;
      Printf.printf "\n  txn/s: ";
      List.iter
        (fun (t, rate) -> if Float.rem t 1.0 < 0.25 then Printf.printf "%6.0f" rate)
        r.Runner.series;
      print_newline ())
    results;
  csv_out "fig7c"
    ~columns:[ "timeout_s"; "t_s"; "txn_per_s" ]
    (List.concat_map
       (fun (timeout, (r : Runner.result)) ->
         List.map
           (fun (t, rate) ->
             [
               Printf.sprintf "%.0f" timeout;
               Printf.sprintf "%.1f" t;
               Printf.sprintf "%.0f" rate;
             ])
           r.Runner.series)
       results);
  labeled_rows "fig7c"
    (List.map (fun (timeout, r) -> (Printf.sprintf "timeout=%g" timeout, r)) results)

(* --- Figure 8: best-case properties table ------------------------------ *)

(* Measured on a low-contention one-shot micro-workload: latency in
   RTTs (median latency / simulated RTT), messages per committed
   transaction and the false-abort rate. *)
let fig8 ~jobs ~quick:_ scale =
  header "Fig 8: measured best-case properties (low-contention one-shot)";
  let one_way = 250e-6 in
  let rtt = 2.0 *. one_way in
  let probe ~write_fraction ~label =
    Workload.Micro.make
      {
        Workload.Micro.n_keys = 100_000;
        zipf_theta = 0.3;
        write_fraction;
        ro_keys_min = 2;
        ro_keys_max = 4;
        rw_keys_min = 2;
        rw_keys_max = 4;
        write_ops_fraction = 0.5;
        value_bytes_mean = 256.0;
        value_bytes_stddev = 32.0;
        label;
      }
  in
  let all =
    strict_protocols @ [ ("TAPIR-CC", Baselines.tapir_cc); ("MVTO", Baselines.mvto) ]
  in
  Printf.printf "%-10s %8s %8s %10s %10s %12s %12s\n" "protocol" "RO(RTT)" "RW(RTT)"
    "RO msg/t" "RW msg/t" "false-abort%" "consistency";
  (* one job per (protocol, probe) cell; probes are built inside the job *)
  let cells =
    List.concat_map (fun (name, p) -> [ (name, p, true); (name, p, false) ]) all
  in
  let runs =
    Harness.Pool.map ~jobs
      (fun (name, p, ro) ->
        let w =
          if ro then probe ~write_fraction:0.0 ~label:"props-ro"
          else probe ~write_fraction:1.0 ~label:"props-rw"
        in
        let cfg =
          {
            (base_cfg scale) with
            Runner.offered_load = 2_000.0;
            latency = Runner.Uniform { one_way; jitter = 5e-6 };
          }
        in
        Runner.run ~label:name p w cfg)
      cells
  in
  let rec pair names runs =
    match (names, runs) with
    | (name, _) :: ns, ro :: rw :: rs -> (name, ro, rw) :: pair ns rs
    | _ -> []
  in
  let rows = pair all runs in
  List.iter
    (fun (name, ro, rw) ->
      let strict = name <> "TAPIR-CC" && name <> "MVTO" in
      Printf.printf "%-10s %8.2f %8.2f %10.1f %10.1f %11.2f%% %12s\n" name
        (ro.Runner.p50 /. rtt) (rw.Runner.p50 /. rtt) ro.Runner.msgs_per_commit
        rw.Runner.msgs_per_commit
        (100.0 *. abort_rate rw)
        (if strict then "strict-ser" else "ser"))
    rows;
  List.concat_map
    (fun (name, ro, rw) -> [ row ("fig8:" ^ name ^ ":ro") ro; row ("fig8:" ^ name ^ ":rw") rw ])
    rows

(* --- §5.3 inline statistics -------------------------------------------- *)

let ncc_internals ~load scale =
  header "NCC internal statistics at the operating point (paper §5.3)";
  let w = Workload.Google_f1.make () in
  let cfg = { (base_cfg scale) with Runner.offered_load = load } in
  let r = Runner.run Ncc.protocol w cfg in
  let c k = Option.value ~default:0.0 (List.assoc_opt k r.Runner.counters) in
  let txns = c "sg_pass" +. c "sr_commit" +. c "sr_abort" +. c "sg_abort" in
  (* ncc-lint: allow R8 — exact zero guard before division on aggregate counters, not simulated time *)
  let pct a b = if b = 0.0 then 0.0 else 100.0 *. a /. b in
  Printf.printf "safeguard passed directly:   %6.2f%%\n" (pct (c "sg_pass") txns);
  Printf.printf "smart retry rescued:         %6.2f%% of safeguard misses\n"
    (pct (c "sr_commit") (c "sr_commit" +. c "sr_abort" +. c "sg_abort"));
  Printf.printf "aborted and retried:         %6.2f%%\n"
    (pct (c "sr_abort" +. c "sg_abort") txns);
  Printf.printf "responses sent undelayed:    %6.2f%%\n"
    (pct (c "replies_immediate") (c "replies_immediate" +. c "replies_delayed"));
  Printf.printf "throughput %.0f/s, p50 %.2f ms, checker: %s\n" r.Runner.throughput
    (r.Runner.p50 *. 1e3) r.Runner.check_result;
  r

(* --- ablations (DESIGN.md §5) ------------------------------------------- *)

let ablations ~jobs ~quick:_ scale =
  let load = 15_000.0 in
  header "Ablations: NCC optimizations (hot keys, 15% writes, 5ms clock skew)";
  (* an adversarial setting where the timestamp optimizations earn
     their keep: skewed clients writing hot keys make pre-assigned
     timestamps disagree with arrival order *)
  let w () =
    Workload.Micro.make
      {
        Workload.Micro.n_keys = 50_000;
        zipf_theta = 0.85;
        write_fraction = 0.15;
        ro_keys_min = 1;
        ro_keys_max = 6;
        rw_keys_min = 2;
        rw_keys_max = 6;
        write_ops_fraction = 0.5;
        value_bytes_mean = 512.0;
        value_bytes_stddev = 64.0;
        label = "ablation";
      }
  in
  let protocols =
    [
      ("NCC", Ncc.protocol);
      ("no-SR", Ncc.protocol_no_smart_retry);
      ("no-AAT", Ncc.protocol_no_async_aware);
      ("NCC-RW", Ncc.protocol_rw);
    ]
  in
  print_curve_header ();
  let results =
    Harness.Pool.map ~jobs
      (fun (name, p) ->
        let cfg =
          {
            (base_cfg scale) with
            Runner.offered_load = load;
            max_clock_offset = 5e-3;
          }
        in
        (name, Runner.run ~label:name p (w ()) cfg))
      protocols
  in
  List.iter (fun (name, r) -> print_row name r) results;
  labeled_rows "ablations" results

(* --- replication (§4.6 + the paper's future-work optimization) ---------- *)

(* The paper's claim: "server replication inevitably increases latency
   but does not introduce more aborts, because whether a transaction is
   committed or aborted is solely based on its timestamps which are
   decided during request execution and before replication starts."
   We run NCC unreplicated, NCC-R (every state change replicated to 2
   replicas per server before its response releases), and NCC-R with
   replication deferred to the last shot (§4.6's sketched optimization). *)
let replication ~jobs ~quick scale =
  let load = if quick then 5_000.0 else 10_000.0 in
  header "Replication (§4.6): NCC vs NCC-R vs deferred replication";
  (* TPC-C: its multi-shot transactions are where deferring replication
     to the last shot saves proposals (F1 is one-shot, so the two modes
     coincide there). *)
  let w () = Workload.Tpcc.make ~n_servers:scale.n_servers () in
  let variants =
    [
      ("NCC", Ncc.protocol, 0);
      ("NCC-R", Ncc_r.protocol, 2);
      ("NCC-R-def", Ncc_r.protocol_deferred, 2);
    ]
  in
  Printf.printf "%-10s %9s %9s %8s %9s %10s\n" "variant" "p50(ms)" "p99(ms)" "abort%"
    "msg/txn" "proposals";
  let results =
    Harness.Pool.map ~jobs
      (fun (name, p, replicas) ->
        let cfg =
          {
            (base_cfg scale) with
            Runner.offered_load = load;
            replicas_per_server = replicas;
          }
        in
        (name, Runner.run ~label:name p (w ()) cfg))
      variants
  in
  List.iter
    (fun (name, r) ->
      Printf.printf "%-10s %9.2f %9.2f %7.2f%% %9.1f %10.0f\n" name
        (r.Runner.p50 *. 1e3) (r.Runner.p99 *. 1e3)
        (100.0 *. abort_rate r)
        r.Runner.msgs_per_commit
        (Option.value ~default:0.0 (List.assoc_opt "proposed" r.Runner.counters)))
    results;
  labeled_rows "replication" results

(* --- geo-replication: within vs across datacenters ------------------- *)

(* §2.1: transactions execute within a datacenter "and then replicated
   within/across datacenters". Within-DC replicas cost one local round
   trip before responses release; cross-DC replicas cost a wide-area
   one. Abort rates stay flat in both cases — the §4.6 argument doesn't
   care where the replicas are. *)
let geo ~jobs ~quick scale =
  let load = if quick then 4_000.0 else 8_000.0 in
  let wide = 20e-3 in
  header "Geo-replication: local vs cross-datacenter replica groups";
  let w () = Workload.Google_f1.make_wf ~write_fraction:0.05 () in
  (* election timeouts must dominate the replica round trip *)
  let geo_p =
    Ncc_r.make_protocol
      ~raft_timeouts:{ Ncc_r.election = 12.0 *. wide; heartbeat = 2.0 *. wide }
      ~name:"NCC-R/geo" ()
  in
  let variants =
    [
      ("NCC", Ncc.protocol, 0, None);
      ( "NCC-R/local",
        Ncc_r.protocol,
        2,
        Some (Runner.Geo_replicas { local = 250e-6; wide = 250e-6; jitter = 25e-6 }) );
      ("NCC-R/geo", geo_p, 2, Some (Runner.Geo_replicas { local = 250e-6; wide; jitter = 25e-6 }));
    ]
  in
  Printf.printf "%-12s %9s %9s %8s\n" "variant" "p50(ms)" "p99(ms)" "abort%";
  let results =
    Harness.Pool.map ~jobs
      (fun (name, p, replicas, latency) ->
        let base = base_cfg scale in
        let cfg =
          {
            base with
            Runner.offered_load = load;
            replicas_per_server = replicas;
            latency = Option.value ~default:base.Runner.latency latency;
          }
        in
        (name, Runner.run ~label:name p (w ()) cfg))
      variants
  in
  List.iter
    (fun (name, r) ->
      Printf.printf "%-12s %9.2f %9.2f %7.2f%%\n" name (r.Runner.p50 *. 1e3)
        (r.Runner.p99 *. 1e3)
        (100.0 *. abort_rate r))
    results;
  labeled_rows "geo" results

(* --- the paper's workload-parameter tables (Figs 4 and 5) --------------- *)

let params ~jobs:_ ~quick:_ _ =
  header "Fig 4: workload parameters";
  Printf.printf
    "Google-F1:     write fraction 0.3%% (0.3-30%% in Google-WF), 1-10 keys per\n\
    \               txn, value 1.6KB±119B, zipfian 0.8, 1M keys\n\
     Facebook-TAO:  write fraction 0.2%%, assoc-to-obj 9.5:1, RO txns 1-1000 keys,\n\
    \               single-key writes, values 1-4KB, zipfian 0.8\n\
     TPC-C:         New-Order 44%%, Payment 44%%, Delivery 4%%, Order-Status 4%%,\n\
    \               Stock-Level 4%%; 10 districts/warehouse, 8 warehouses/server\n";
  header "Fig 5: natural-consistency categories";
  Printf.printf
    "Facebook-TAO:  low contention, 1 shot, read-dominated -> RO fast path\n\
     Google-F1:     low contention, 1 shot, read-dominated -> RO fast path\n\
     TPC-C:         medium-high contention, multi-shot, write-intensive\n\
     Google-WF:     low-high contention, 1 shot, write-intensive\n";
  []

(* --- the figure table ----------------------------------------------------- *)

(* Fig 6a carries the §5.3 internal statistics at its operating point. *)
let fig6a ~jobs ~quick scale =
  let rows =
    curve_figure ~name:"fig6a" ~title:"Fig 6a: Google-F1, latency vs throughput"
      ~workload:(fun () -> Workload.Google_f1.make ())
      ~loads:f1_loads ~jobs ~quick scale
  in
  let internals =
    ncc_internals ~load:(if quick then 8_000.0 else 15_000.0) scale
  in
  rows @ [ row "internals:NCC" internals ]

let figures =
  [
    ("params", params);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig8", fig8);
    ("ablations", ablations);
    ("replication", replication);
    ("geo", geo);
  ]
