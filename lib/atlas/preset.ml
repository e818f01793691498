(* The one preset table: every table and figure of the paper's
   evaluation (§5), then the atlas scenarios. A preset builds its
   scenario at the quick or the full scale. A figure's reporter prints
   the series the paper plots, writes its CSV when NCC_CSV_DIR is set
   and returns its runs as BENCH rows; a scenario reduces to a phase
   diagram.

   Absolute numbers differ from the paper (their substrate was an Azure
   cluster, ours is a calibrated simulator); the claims we reproduce
   are the *shapes*: who saturates first, latency in RTTs, crossovers,
   and the recovery dip. *)

module Runner = Harness.Runner

type cells = (string * Driver.cell_result list) list

(* The simulated testbed: the paper's 8 servers and 24 open-loop
   clients over 2 s, unchecked so published curves time the protocol
   alone; the quick scale runs 4 servers and 12 clients over 1 s with
   every history stream-checked. Delays and clock skew are the
   runner's defaults, the seed is 42. *)
let figure ~quick ?(name = "testbed") ?(title = "the paper's testbed")
    ?(workload = Knob.Micro_mix) ?(load = 0.0) ?(axes = []) ?(tune = Fun.id) roster =
  let n_servers, n_clients, duration, warmup =
    if quick then (4, 12, 1.0, 0.3) else (8, 24, 2.0, 0.5)
  in
  let window = { Knob.duration; warmup; drain = 0.5; series = None } in
  let base =
    { Knob.default_point with Knob.workload; load; n_servers; n_clients; window }
  in
  {
    Scenario.name;
    description = title;
    quick;
    check = (if quick then Runner.Streaming else Runner.No_check);
    base = tune base;
    axes;
    roster;
    seeds = [ 42 ];
  }

let testbed ~quick = figure ~quick []
let strict = [ "NCC"; "NCC-RW"; "dOCC"; "d2PL-NW"; "d2PL-WW"; "Janus-CC" ]

(* --- output helpers -------------------------------------------------- *)

let pf = Printf.sprintf
let header title = Printf.printf "\n== %s ==\n" title
let result (c : Driver.cell_result) = c.Driver.result
let per_cell (groups : cells) f = List.concat_map (fun (l, cs) -> List.map (f l) cs) groups

let counter name c =
  Option.value ~default:0.0 (List.assoc_opt name (result c).Runner.counters)

let csv_out name columns rows =
  match Sys.getenv_opt "NCC_CSV_DIR" with
  | None -> ()
  | Some dir ->
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) (columns :: rows);
    close_out oc

let print_curve_header () =
  Printf.printf "%-10s %10s %10s %9s %9s %7s %7s %6s\n" "protocol" "offered/s"
    "commits/s" "p50(ms)" "p99(ms)" "msg/txn" "abort%" "util"

let print_row label (c : Driver.cell_result) =
  let r = result c in
  Printf.printf "%-10s %10.0f %10.0f %9.2f %9.2f %7.1f %6.1f%% %6.2f\n" label
    r.Runner.offered r.Runner.throughput (r.Runner.p50 *. 1e3) (r.Runner.p99 *. 1e3)
    r.Runner.msgs_per_commit (100.0 *. c.Driver.abort_rate) r.Runner.max_utilization

let row experiment c = Harness.Report.bench_row ~experiment (result c)

(* One BENCH row per cell, named "<fig>:<label>" or "<fig>:<label>@<x>". *)
let labeled_rows fig groups = per_cell groups (fun l -> row (fig ^ ":" ^ l))
let curve_rows fig x groups = per_cell groups (fun l c -> row (pf "%s:%s@%.0f" fig l (x c)) c)
let load_of (c : Driver.cell_result) = c.Driver.cell.Driver.point.Knob.load

(* --- Figure 6 and 7b: latency vs throughput curves ------------------- *)

(* Sweep offered load for each protocol; the curve of (committed
   throughput, median latency) is what Fig 6 plots. Quick runs use 4
   servers, which saturate at roughly half the load of the full scale's
   8: the quick sweep halves its loads. *)
let curve ~name ~title ~workload ~loads ?(protocols = strict) () =
  let make ~quick =
    let loads = if quick then List.map (fun l -> l /. 2.0) loads else loads in
    figure ~quick ~name ~title ~workload ~axes:[ Knob.Load loads ] (Scenario.roster protocols)
  in
  let report groups =
    print_curve_header ();
    List.iter
      (fun (label, cs) ->
        List.iter (print_row label) cs;
        print_newline ())
      groups;
    csv_out name
      [ "protocol"; "offered"; "throughput"; "p50_ms"; "p99_ms"; "msg_per_txn"; "abort_rate" ]
      (per_cell groups (fun label c ->
           let r = result c in
           [
             label;
             pf "%.0f" r.Runner.offered;
             pf "%.0f" r.Runner.throughput;
             pf "%.3f" (r.Runner.p50 *. 1e3);
             pf "%.3f" (r.Runner.p99 *. 1e3);
             pf "%.2f" r.Runner.msgs_per_commit;
             pf "%.4f" c.Driver.abort_rate;
           ]));
    curve_rows name load_of groups
  in
  (make, report)

let f1_loads = [ 5_000.; 12_000.; 20_000.; 32_000.; 45_000. ]

let fig6b =
  curve ~name:"fig6b" ~title:"Fig 6b: Facebook-TAO, latency vs throughput"
    ~workload:Knob.Facebook_tao ~loads:[ 4_000.; 10_000.; 18_000.; 28_000.; 40_000. ] ()

(* TAPIR-CC is not evaluated on TPC-C in the paper; same here. *)
let fig6c =
  curve ~name:"fig6c" ~title:"Fig 6c: TPC-C (New-Order reported), latency vs throughput"
    ~workload:Knob.Tpcc ~loads:[ 4_000.; 9_000.; 15_000.; 21_000.; 27_000. ] ()

let fig7b =
  curve ~name:"fig7b" ~title:"Fig 7b: Google-F1, NCC vs serializable TAPIR-CC / MVTO"
    ~workload:Knob.Google_f1 ~loads:f1_loads ~protocols:[ "NCC"; "TAPIR-CC"; "MVTO" ] ()

(* Fig 6a carries the §5.3 internal statistics of NCC at one operating
   point: a last entry that runs once, outside the load sweep. *)
let fig6a =
  let make, report =
    curve ~name:"fig6a" ~title:"Fig 6a: Google-F1, latency vs throughput"
      ~workload:Knob.Google_f1 ~loads:f1_loads ()
  in
  let make ~quick =
    let s = make ~quick in
    let load = if quick then 8_000.0 else 15_000.0 in
    let internals = Scenario.entry "NCC" ~swept:false ~tune:(fun p -> { p with Knob.load }) in
    { s with Scenario.roster = s.Scenario.roster @ [ internals ] }
  in
  let report groups =
    let curves, internals =
      match List.rev groups with
      | (_, [ internals ]) :: curves -> (List.rev curves, internals)
      | _ -> invalid_arg "fig6a: no internals cell"
    in
    let rows = report curves in
    header "NCC internal statistics at the operating point (paper §5.3)";
    let c k = counter k internals in
    let txns = c "sg_pass" +. c "sr_commit" +. c "sr_abort" +. c "sg_abort" in
    let pct a b = if b > 0.0 then 100.0 *. a /. b else 0.0 in
    Printf.printf "safeguard passed directly:   %6.2f%%\n" (pct (c "sg_pass") txns);
    Printf.printf "smart retry rescued:         %6.2f%% of safeguard misses\n"
      (pct (c "sr_commit") (c "sr_commit" +. c "sr_abort" +. c "sg_abort"));
    Printf.printf "aborted and retried:         %6.2f%%\n"
      (pct (c "sr_abort" +. c "sg_abort") txns);
    Printf.printf "responses sent undelayed:    %6.2f%%\n"
      (pct (c "replies_immediate") (c "replies_immediate" +. c "replies_delayed"));
    let r = result internals in
    Printf.printf "throughput %.0f/s, p50 %.2f ms, checker: %s\n" r.Runner.throughput
      (r.Runner.p50 *. 1e3) r.Runner.check_result;
    rows @ [ row "internals:NCC" internals ]
  in
  (make, report)

(* --- Figure 7a: write-fraction sweep --------------------------------- *)

(* Each system runs at its own operating point while the write fraction
   grows; the paper reports throughput normalized to each system's own
   maximum across the sweep. The peaks are open-loop back-pressure
   points measured on the Fig 6a sweeps (~85% of true capacity); 0.9x
   of that is the paper's "~75% load". NCC appears twice: with the
   paper's server-granularity read-only fence (whose fast-path aborts
   grow with the write rate — the degradation the paper reports) and
   with the default per-key fence. *)
let fig7a =
  let write_fractions = [ 0.003; 0.01; 0.03; 0.10; 0.30 ] in
  let make ~quick =
    let at name ?protocol peak =
      let load = 0.9 *. ((if quick then 0.5 else 1.0) *. peak) in
      Scenario.entry name ?protocol ~tune:(fun p -> { p with Knob.load })
    in
    figure ~quick ~name:"fig7a" ~title:"Fig 7a: Google-WF, normalized throughput vs write fraction"
      ~workload:Knob.Google_wf ~axes:[ Knob.Write_fraction write_fractions ]
      [
        at "NCC-sfence" ~protocol:Ncc.protocol_server_fence 30_000.0;
        at "NCC" 46_000.0;
        at "NCC-RW" 24_000.0;
        at "dOCC" 16_000.0;
        at "d2PL-NW" 24_000.0;
        at "d2PL-WW" 12_000.0;
        at "Janus-CC" 16_000.0;
      ]
  in
  let report groups =
    Printf.printf "%-10s" "protocol";
    List.iter (fun wf -> Printf.printf " %8.1f%%" (100.0 *. wf)) write_fractions;
    Printf.printf "   (normalized throughput)\n";
    let tput c = (result c).Runner.throughput in
    let line f =
      List.iter
        (fun (label, cs) ->
          Printf.printf "%-10s" label;
          f cs;
          print_newline ())
        groups
    in
    line (fun cs ->
        let peak = List.fold_left (fun acc c -> Float.max acc (tput c)) 1.0 cs in
        List.iter (fun c -> Printf.printf " %9.2f" (tput c /. peak)) cs);
    Printf.printf "%-10s\n" "(abort %)";
    line (List.iter (fun c -> Printf.printf " %9.1f" (100.0 *. c.Driver.abort_rate)));
    let wf (c : Driver.cell_result) = c.Driver.cell.Driver.point.Knob.write_fraction in
    csv_out "fig7a" [ "protocol"; "write_fraction"; "throughput"; "abort_rate" ]
      (per_cell groups (fun label c ->
           [
             label;
             pf "%.3f" (wf c);
             pf "%.0f" (tput c);
             pf "%.4f" c.Driver.abort_rate;
           ]));
    curve_rows "fig7a" wf groups
  in
  (make, report)

(* --- Figure 7c: client-failure recovery ------------------------------- *)

(* NCC-RW's clients stop sending commits at t=10 s; the backup
   coordinator's recovery timeout (1 s or 3 s) sets the dip in the
   commit-rate series. *)
let fig7c =
  let timeouts = [ 1.0; 3.0 ] in
  let make ~quick =
    figure ~quick ~name:"fig7c"
      ~title:"Fig 7c: client failures at t=10s, NCC-RW throughput over time"
      ~workload:Knob.Google_f1 ~load:(if quick then 6_000.0 else 15_000.0)
      ~tune:(fun p ->
        {
          p with
          Knob.window = { duration = 20.0; warmup = 0.0; drain = 2.0; series = Some 0.5 };
        })
      (List.map
         (fun timeout ->
           let name = pf "NCC-RW(%.0fs)" timeout in
           let config =
             {
               Ncc.default_config with
               Ncc.Msg.use_ro = false;
               fail_commits_after = Some 10.0;
               recovery_timeout = Some timeout;
             }
           in
           Scenario.entry name ~protocol:(Ncc.make_protocol ~config ~name ()))
         timeouts)
  in
  let report groups =
    let runs = List.map2 (fun t (_, cs) -> (t, result (List.hd cs))) timeouts groups in
    List.iter
      (fun (timeout, r) ->
        let whole f = List.iter (fun (t, v) -> if Float.rem t 1.0 < 0.25 then f t v) in
        Printf.printf "timeout %.0fs (recoveries=%.0f):\n" timeout
          (Option.value ~default:0.0 (List.assoc_opt "recoveries" r.Runner.counters));
        Printf.printf "  t(s):  ";
        whole (fun t _ -> Printf.printf "%6.0f" t) r.Runner.series;
        Printf.printf "\n  txn/s: ";
        whole (fun _ rate -> Printf.printf "%6.0f" rate) r.Runner.series;
        print_newline ())
      runs;
    csv_out "fig7c" [ "timeout_s"; "t_s"; "txn_per_s" ]
      (List.concat_map
         (fun (timeout, r) ->
           List.map
             (fun (t, rate) -> [ pf "%.0f" timeout; pf "%.1f" t; pf "%.0f" rate ])
             r.Runner.series)
         runs);
    List.map
      (fun (timeout, r) ->
        Harness.Report.bench_row ~experiment:(pf "fig7c:timeout=%g" timeout) r)
      runs
  in
  (make, report)

(* --- Figure 8: best-case properties table ------------------------------ *)

(* Measured on a low-contention one-shot micro-workload, a read-only
   and a read-write probe per protocol: latency in RTTs (median latency
   / simulated RTT), messages per committed transaction and the
   false-abort rate. *)
let fig8 =
  let one_way = 250e-6 in
  let probe write_fraction label =
    Knob.Micro
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
  let make ~quick =
    figure ~quick ~name:"fig8"
      ~title:"Fig 8: measured best-case properties (low-contention one-shot)" ~load:2_000.0
      ~tune:(fun p ->
        { p with Knob.latency = Knob.Spec (Runner.Uniform { one_way; jitter = 5e-6 }) })
      ~axes:[ Knob.Workload [ probe 0.0 "props-ro"; probe 1.0 "props-rw" ] ]
      (Scenario.roster (strict @ [ "TAPIR-CC"; "MVTO" ]))
  in
  let report groups =
    let rtt = 2.0 *. one_way in
    Printf.printf "%-10s %8s %8s %10s %10s %12s %12s\n" "protocol" "RO(RTT)" "RW(RTT)"
      "RO msg/t" "RW msg/t" "false-abort%" "consistency";
    List.concat_map
      (fun (label, cs) ->
        match cs with
        | [ ro; rw ] ->
          let strict_ser = label <> "TAPIR-CC" && label <> "MVTO" in
          Printf.printf "%-10s %8.2f %8.2f %10.1f %10.1f %11.2f%% %12s\n" label
            ((result ro).Runner.p50 /. rtt) ((result rw).Runner.p50 /. rtt)
            (result ro).Runner.msgs_per_commit (result rw).Runner.msgs_per_commit
            (100.0 *. rw.Driver.abort_rate)
            (if strict_ser then "strict-ser" else "ser");
          [ row ("fig8:" ^ label ^ ":ro") ro; row ("fig8:" ^ label ^ ":rw") rw ]
        | _ -> invalid_arg "fig8: two probes per protocol")
      groups
  in
  (make, report)

(* --- ablations (DESIGN.md §5) ------------------------------------------- *)

(* An adversarial setting where the timestamp optimizations earn their
   keep: skewed clients writing hot keys make pre-assigned timestamps
   disagree with arrival order. *)
let ablations =
  let make ~quick =
    figure ~quick ~name:"ablations"
      ~title:"Ablations: NCC optimizations (hot keys, 15% writes, 5ms clock skew)"
      ~workload:
        (Knob.Micro
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
           })
      ~load:15_000.0
      ~tune:(fun p -> { p with Knob.clock_skew = 5e-3 })
      [
        Scenario.entry "NCC";
        Scenario.entry "NCC-noSR" ~label:"no-SR";
        Scenario.entry "NCC-noAAT" ~label:"no-AAT";
        Scenario.entry "NCC-RW";
      ]
  in
  let report groups =
    print_curve_header ();
    List.iter (fun (label, cs) -> List.iter (print_row label) cs) groups;
    labeled_rows "ablations" groups
  in
  (make, report)

(* --- replication: §4.6 and §2.1 ------------------------------------------ *)

(* Two replica nodes per server, optionally with their own delays. *)
let replicated ?latency (p : Knob.point) =
  { p with Knob.replicas = 2; latency = Option.value latency ~default:p.Knob.latency }

let variant_rows fig ~width ?(extra = fun _ -> "") groups =
  List.iter
    (fun (label, cs) ->
      List.iter
        (fun c ->
          let r = result c in
          Printf.printf "%-*s %9.2f %9.2f %7.2f%%%s\n" width label (r.Runner.p50 *. 1e3)
            (r.Runner.p99 *. 1e3) (100.0 *. c.Driver.abort_rate) (extra c))
        cs)
    groups;
  labeled_rows fig groups

(* The paper's claim: "server replication inevitably increases latency
   but does not introduce more aborts, because whether a transaction is
   committed or aborted is solely based on its timestamps which are
   decided during request execution and before replication starts."
   NCC runs unreplicated, as NCC-R (every state change replicated to 2
   replicas per server before its response releases), and as NCC-R with
   replication deferred to the last shot (§4.6's sketched optimization).
   On TPC-C: its multi-shot transactions are where deferring saves
   proposals (F1 is one-shot, so the two modes coincide there). *)
let replication =
  let make ~quick =
    figure ~quick ~name:"replication"
      ~title:"Replication (§4.6): NCC vs NCC-R vs deferred replication" ~workload:Knob.Tpcc
      ~load:(if quick then 5_000.0 else 10_000.0)
      [
        Scenario.entry "NCC";
        Scenario.entry "NCC-R" ~tune:replicated;
        Scenario.entry "NCC-R-def" ~tune:replicated;
      ]
  in
  let report groups =
    Printf.printf "%-10s %9s %9s %8s %9s %10s\n" "variant" "p50(ms)" "p99(ms)" "abort%"
      "msg/txn" "proposals";
    variant_rows "replication" ~width:10 groups ~extra:(fun c ->
        pf " %9.1f %10.0f" (result c).Runner.msgs_per_commit (counter "proposed" c))
  in
  (make, report)

(* §2.1: transactions execute within a datacenter "and then replicated
   within/across datacenters". Within-DC replicas cost one local round
   trip before responses release; cross-DC replicas cost a wide-area
   one. Abort rates stay flat in both cases — the §4.6 argument doesn't
   care where the replicas are. *)
let geo =
  let make ~quick =
    let wide = 20e-3 in
    let group wide = Knob.Spec (Runner.Geo_replicas { local = 250e-6; wide; jitter = 25e-6 }) in
    (* election timeouts must dominate the replica round trip *)
    let geo_p =
      Ncc_r.make_protocol
        ~raft_timeouts:{ Ncc_r.election = 12.0 *. wide; heartbeat = 2.0 *. wide }
        ~name:"NCC-R/geo" ()
    in
    figure ~quick ~name:"geo" ~title:"Geo-replication: local vs cross-datacenter replica groups"
      ~workload:Knob.Google_wf ~load:(if quick then 4_000.0 else 8_000.0)
      ~tune:(fun p -> { p with Knob.write_fraction = 0.05 })
      [
        Scenario.entry "NCC";
        Scenario.entry "NCC-R" ~label:"NCC-R/local" ~tune:(replicated ~latency:(group 250e-6));
        Scenario.entry "NCC-R/geo" ~protocol:geo_p ~tune:(replicated ~latency:(group wide));
      ]
  in
  let report groups =
    Printf.printf "%-12s %9s %9s %8s\n" "variant" "p50(ms)" "p99(ms)" "abort%";
    variant_rows "geo" ~width:12 groups
  in
  (make, report)

(* --- the paper's workload-parameter tables (Figs 4 and 5) --------------- *)

let params =
  let make ~quick = figure ~quick ~name:"params" ~title:"Fig 4: workload parameters" [] in
  let report _ =
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
  in
  (make, report)

(* --- the preset table ------------------------------------------------------ *)

type report = Phase_diagram | Figure of (Driver.sweep -> Obs.Jsonw.t list)
type t = { name : string; make : quick:bool -> Scenario.t; report : report }

(* Each figure's reporter prints the figure's title, then its table. *)
let figures =
  List.map
    (fun (name, ((make : quick:bool -> Scenario.t), report)) ->
      let report (s : Driver.sweep) =
        header s.Driver.description;
        report (Driver.entries s)
      in
      { name; make; report = Figure report })
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

let scenarios =
  List.map
    (fun make -> { name = (make ~quick:true).Scenario.name; make; report = Phase_diagram })
    Scenario.all

let all = figures @ scenarios
let names = List.map (fun p -> p.name) all

(* Case-insensitive lookup, like protocols and workloads. *)
let find name =
  let ls = String.lowercase_ascii name in
  List.find_opt (fun p -> String.equal (String.lowercase_ascii p.name) ls) all
