(* ncc_sim: command-line driver for the NCC reproduction.

     ncc_sim list                              protocols, workloads, figures, scenarios
     ncc_sim run -p NCC -w google-f1 -l 20000  one simulation, full stats
     ncc_sim run -p NCC --faults 7             ... under a seeded fault schedule
     ncc_sim scale --txns 1e6 --seeds 4        cluster-scale open-loop runs
     ncc_sim trace -p NCC                      traced run -> trace.json (Perfetto)
     ncc_sim profile -p NCC                    instrumented run -> profile.json
     ncc_sim chaos -p NCC --seeds 20           seeded chaos sweep, strict checks
     ncc_sim chaos -p NCC --replay 7           replay one chaos seed
     ncc_sim atlas smoke --quick --jobs 4      scenario sweep -> phase diagram
     ncc_sim atlas fig6a [--quick]             regenerate a paper figure

   run, scale, trace and profile are presets of one flag set and one
   code path: they differ only in their defaults (cluster, load, run
   length, check, artifacts), so `run --perfetto t.json`
   or `scale --profile p.json` work like any other flag. *)

open Cmdliner
module Runner = Harness.Runner

(* Usage errors (an incoherent config, an unwritable output path) exit
   2 before any simulation runs. *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("ncc_sim: " ^ m);
      exit 2)
    fmt

(* One optional flag with a default. *)
let arg ?absent c default names ~docv doc =
  Arg.(value & opt c default & info names ?absent ~docv ~doc)

(* Case-insensitive protocol lookup: "ncc", "NCC" and "Ncc" all name
   the same protocol. *)
let protocol_arg =
  let parse s =
    Option.to_result (Atlas.Protocols.find s)
      ~none:
        (`Msg
          (Printf.sprintf "unknown protocol %S (one of: %s)" s
             (String.concat ", " Atlas.Protocols.names)))
  in
  let print ppf (n, _) = Format.pp_print_string ppf n in
  arg (Arg.conv (parse, print)) ("NCC", Ncc.protocol) [ "p"; "protocol" ] ~docv:"PROTO"
    "Concurrency-control protocol (case-insensitive)."

(* Workload lookup is case-insensitive and alias-tolerant ("tao",
   "TAO" and "facebook-tao" all name the TAO workload) — see
   Workload.Registry. *)
let workload_arg =
  arg Arg.string "google-f1" [ "w"; "workload" ] ~docv:"WORKLOAD" "Workload name."

let find_workload ~n_servers wname =
  match Workload.Registry.find ~n_servers wname with
  | Some mk -> mk
  | None ->
    usage_error "unknown workload %S (one of: %s)" wname
      (String.concat ", " (Workload.Registry.names ~n_servers))

let check_arg default =
  arg (Arg.enum Runner.check_levels) default [ "check" ] ~docv:"LEVEL"
    "History check: $(b,on) (strict, bounded memory), $(b,ser) \
     (serializable, retains the whole history) or $(b,off)."

(* Shared --jobs argument: 1 = sequential (the default, so goldens and
   CI are untouched unless opted in), 0 = one worker per available
   core, N > 1 = that many domains. Parallel output is byte-identical
   to sequential — see docs/performance.md. *)
let jobs_arg =
  arg Arg.int 1 [ "j"; "jobs" ] ~docv:"N"
    "Run independent simulations on N domains (0 = one per core; default \
     sequential). Output is byte-identical to --jobs 1."

(* --seeds N >= 1 (where given) and --jobs N >= 0, or exit 2. *)
let fan_out ?(seeds = 1) jobs =
  if seeds < 1 then usage_error "--seeds must be at least 1 (got %d)" seeds;
  match Harness.Pool.workers jobs with
  | Some n -> n
  | None -> usage_error "--jobs must be at least 0 (got %d)" jobs

let replicas_arg =
  arg Arg.int 0 [ "replicas" ] ~docv:"N"
    "Replica nodes per server (use 2 with NCC-R / NCC-R-def)."

(* Output files are opened before any simulation runs: a bad path fails
   at once instead of after a long run. *)
let check_config pname cfg =
  (match Runner.validate cfg with
   | Ok () -> ()
   | Error m -> usage_error "invalid configuration: %s" m);
  (* without replica nodes a replicated protocol runs unreplicated *)
  if cfg.Runner.replicas_per_server = 0 && Atlas.Protocols.is_replicated pname then
    usage_error "%s replicates to replica nodes: use --replicas N with N >= 1 (got 0)" pname

let open_output path =
  try open_out path with Sys_error e -> usage_error "cannot write %s" e

let write oc s =
  output_string oc s;
  close_out oc

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List available protocols, workloads, figures and atlas scenarios." in
  let f () =
    let names ps = String.concat ", " (List.map (fun (p : Atlas.Preset.t) -> p.name) ps) in
    Printf.printf "protocols: %s\n" (String.concat ", " Atlas.Protocols.names);
    Printf.printf "workloads: %s\n"
      (String.concat ", " (Workload.Registry.names ~n_servers:8));
    Printf.printf "figures:   %s\n" (names Atlas.Preset.figures);
    Printf.printf "scenarios: %s\n" (names Atlas.Preset.scenarios)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

(* --- run / scale / trace / profile: one term, four presets -------------- *)

(* A preset is the defaults of one run subcommand; every flag can
   override them. *)
type preset = {
  name : string;
  doc : string;
  servers : int;
  clients : int;
  load : [ `Fixed of float | `Per_server of float ];
  length : [ `Duration of float | `Txns of float ];
  warmup_drain : float -> float * float;  (* from the measured duration *)
  latency : Runner.latency_spec;
  check : Runner.check_level;
  check_window : int;
  seed : int;
  perfetto : string option;
  profile : string option;
}

let run_preset =
  {
    name = "run";
    doc = "Run one simulation and print its statistics.";
    servers = 8;
    clients = 24;
    load = `Fixed 10_000.0;
    length = `Duration 2.0;
    warmup_drain = (fun _ -> (Runner.default.Runner.warmup, Runner.default.Runner.drain));
    latency = Runner.default.Runner.latency;
    check = Runner.No_check;
    check_window = Runner.default.Runner.check_window;
    seed = 42;
    perfetto = None;
    profile = None;
  }

let scale_preset =
  {
    name = "scale";
    doc =
      "Cluster-scale open-loop runs: 64+ servers, 10k+ clients, 10-100M offered \
       transactions, stream-checked in bounded memory. Latency is the uniform \
       model (the per-pair asymmetric table is O(nodes^2) and unusable at this \
       node count).";
    servers = 64;
    clients = 10_000;
    load = `Per_server 2_000.0;
    length = `Txns 1e6;
    warmup_drain =
      (fun d ->
        let w = Float.min 0.5 (d *. 0.05) in
        (w, w));
    latency = Runner.Uniform { one_way = 250e-6; jitter = 25e-6 };
    check = Runner.Streaming;
    check_window = 4096;
    seed = 1;
    perfetto = None;
    profile = None;
  }

(* The observability presets are deliberately short: trace files grow
   with load x duration. *)
let trace_preset =
  {
    run_preset with
    name = "trace";
    doc =
      "Run one instrumented simulation and write its span trace as Chrome \
       trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or \
       chrome://tracing. One timeline track per node; transaction lifecycle, \
       retry back-off, message flight/queueing and handler-execution spans.";
    servers = 4;
    clients = 8;
    load = `Fixed 2_000.0;
    length = `Duration 0.2;
    warmup_drain = (fun _ -> (0.05, 0.05));
    perfetto = Some "trace.json";
  }

let profile_preset =
  {
    trace_preset with
    name = "profile";
    doc =
      "Run one instrumented simulation and write the run profile as JSON: the \
       run summary plus every metrics cell (per-node counters, gauges, latency \
       histograms with p50/p90/p99/p999).";
    perfetto = None;
    profile = Some "profile.json";
  }

(* The flags that shape the Runner config, less the fault schedule.
   [Error] for a combination no config can hold. *)
let config_term p =
  let open Term.Syntax in
  let+ servers = arg Arg.int p.servers [ "servers" ] ~docv:"N" "Number of servers."
  and+ clients = arg Arg.int p.clients [ "clients" ] ~docv:"N" "Number of clients."
  and+ replicas = replicas_arg
  and+ load =
    arg
      ~absent:
        (match p.load with
         | `Fixed l -> Printf.sprintf "%g" l
         | `Per_server l -> Printf.sprintf "%g x servers" l)
      Arg.(some float) None [ "l"; "load" ] ~docv:"TXN/S"
      "Offered load, transactions/second."
  and+ duration =
    arg
      ~absent:
        (match p.length with
         | `Duration d -> Printf.sprintf "%g" d
         | `Txns _ -> "txns / load")
      Arg.(some float) None [ "duration" ] ~docv:"SECONDS"
      "Measured seconds (simulated). Excludes $(b,--txns)."
  and+ txns =
    arg
      ~absent:
        (match p.length with
         | `Txns n -> Printf.sprintf "%g" n
         | `Duration _ -> "unset")
      Arg.(some float) None [ "txns" ] ~docv:"N"
      "Offered transactions over the measurement window: sets the simulated \
       duration to N / load. Excludes $(b,--duration)."
  and+ check = check_arg p.check
  and+ check_window =
    arg Arg.int p.check_window [ "check-window" ] ~docv:"N"
      "Streaming check: commits per checker epoch (the GC window)."
  and+ seed = arg Arg.int p.seed [ "seed" ] ~docv:"SEED" "Random seed of the first run."
  and+ request_timeout =
    arg Arg.(some float) None [ "request-timeout" ] ~docv:"SECONDS"
      "Per-attempt client timeout; the attempt is cancelled and retried when \
       it fires. Required for liveness under message loss."
  and+ arrival =
    arg
      Arg.(enum [ ("constant", `Constant); ("diurnal", `Diurnal); ("bursty", `Bursty) ])
      `Constant [ "arrival" ] ~docv:"CURVE"
      "Arrival-rate curve: $(b,constant) (homogeneous Poisson), $(b,diurnal) \
       (cosine day/night swing) or $(b,bursty) (periodic bursts at 4x the base \
       rate)."
  and+ curve_period =
    arg Arg.float 0.0 [ "curve-period" ] ~docv:"SECONDS"
      "Period of the diurnal/bursty curve (0 = one diurnal cycle per run, or \
       ten bursts per run)."
  and+ admission_cap =
    arg Arg.int 0 [ "admission-cap" ] ~docv:"N"
      "System-wide in-flight transaction ceiling; arrivals beyond it are shed \
       (0 = unlimited)."
  and+ hot_key_threshold =
    arg Arg.float 0.0 [ "hot-key-threshold" ] ~docv:"SCORE"
      "Shed arrivals touching keys whose decaying abort score exceeds SCORE (0 \
       = off)."
  and+ hot_key_halflife =
    arg Arg.float 0.05 [ "hot-key-halflife" ] ~docv:"SECONDS"
      "Half-life of the hot-key abort score decay."
  and+ store_gc_period =
    arg Arg.float 0.0 [ "store-gc" ] ~docv:"SECONDS"
      "Truncate committed version chains on every server store this often, for \
       bounded-memory long runs (0 = off)."
  and+ store_gc_keep =
    arg Arg.int 4 [ "store-gc-keep" ] ~docv:"N"
      "Committed versions kept per key by --store-gc."
  in
  let load =
    match (load, p.load) with
    | Some l, _ | None, `Fixed l -> l
    | None, `Per_server l -> l *. float_of_int servers
  in
  let length =
    match (duration, txns, p.length) with
    | Some _, Some _, _ -> Error "give --duration or --txns, not both"
    | Some d, None, _ | None, None, `Duration d -> Ok d
    | None, Some n, _ | None, None, `Txns n -> Ok (n /. load)
  in
  Result.map
    (fun duration ->
      let warmup, drain = p.warmup_drain duration in
      let curve_period default = if curve_period > 0.0 then curve_period else default in
      {
        Runner.default with
        Runner.seed;
        n_servers = servers;
        n_clients = clients;
        replicas_per_server = replicas;
        offered_load = load;
        duration;
        warmup;
        drain;
        latency = p.latency;
        check;
        check_window;
        request_timeout;
        arrival =
          (match arrival with
           | `Constant -> Runner.Constant
           | `Diurnal -> Runner.Diurnal { period = curve_period duration; trough = 0.25 }
           | `Bursty ->
             let period = curve_period (duration /. 10.0) in
             Runner.Bursty { period; burst_len = period /. 5.0; burst_mult = 4.0 });
        admission_cap = (if admission_cap > 0 then Some admission_cap else None);
        hot_key_shed =
          (if hot_key_threshold > 0.0 then
             Some
               {
                 Runner.shed_threshold = hot_key_threshold;
                 shed_halflife = hot_key_halflife;
               }
           else None);
        store_gc =
          (if store_gc_period > 0.0 then Some (store_gc_period, store_gc_keep) else None);
      })
    length

(* --faults SEED draws a random schedule over the run's topology;
   --drop/--dup raise its message-loss probabilities (or set them on a
   fault-free schedule). A negative or NaN flag is kept as given, so
   [Runner.validate] refuses it by name instead of the run ignoring
   it. *)
let faults_term =
  let open Term.Syntax in
  let+ faults_seed =
    arg Arg.int 0 [ "faults" ] ~docv:"SEED"
      "Inject a randomized network/node fault schedule derived from SEED (0 = \
       no faults). Pair with $(b,--request-timeout)."
  and+ drop = arg Arg.float 0.0 [ "drop" ] ~docv:"P" "Probability each message is dropped."
  and+ dup =
    arg Arg.float 0.0 [ "dup" ] ~docv:"P" "Probability each message is duplicated."
  in
  let raise_to p flag = if flag > p then flag else if flag >= 0.0 then p else flag in
  fun (cfg : Runner.config) ->
    let f =
      if faults_seed = 0 then Cluster.Faults.none
      else
        let topo =
          Cluster.Topology.make ~replicas_per_server:cfg.Runner.replicas_per_server
            ~n_servers:cfg.Runner.n_servers ~n_clients:cfg.Runner.n_clients ()
        in
        Cluster.Faults.random ~seed:faults_seed
          ~nodes:(List.init (Cluster.Topology.n_nodes topo) Fun.id)
          ~crashable:(Cluster.Topology.servers topo)
          ~horizon:(cfg.Runner.warmup +. cfg.Runner.duration)
    in
    {
      f with
      Cluster.Faults.drop = raise_to f.Cluster.Faults.drop drop;
      duplicate = raise_to f.Cluster.Faults.duplicate dup;
    }

(* What one run produced, gathered inside its pool job. *)
type outcome = {
  seed : int;
  r : Runner.result;
  mx : Obs.Metrics.t;
  spans : Sim.Trace.capture option;  (* the --perfetto / --timeline capture *)
  ring : string;  (* the --trace dump, "" when off *)
}

let gauge mx name =
  Option.value ~default:0.0
    (List.assoc_opt (name, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx))

let report (cfg : Runner.config) timeline o =
  let r = o.r in
  Printf.printf
    "seed %d: committed=%d (%.0f/s) gave_up=%d dropped=%d check=%s\n\
    \  latency p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n\
    \  messages=%d (%.1f/txn)  peak server utilization=%.2f\n"
    o.seed r.Runner.committed r.Runner.throughput r.Runner.gave_up r.Runner.dropped
    r.Runner.check_result (r.Runner.p50 *. 1e3) (r.Runner.p90 *. 1e3)
    (r.Runner.p99 *. 1e3) (r.Runner.mean_latency *. 1e3) r.Runner.messages
    r.Runner.msgs_per_commit r.Runner.max_utilization;
  let pairs label fmt l =
    match l with
    | [] -> ()
    | l ->
      Printf.printf "  %s:" label;
      List.iter (fun (k, v) -> Printf.printf fmt k v) l;
      print_newline ()
  in
  pairs "aborts" " %s=%d" r.Runner.aborts;
  pairs "counters" " %s=%.0f"
    (List.sort (fun (a, _) (b, _) -> String.compare a b) r.Runner.counters);
  (match cfg.Runner.check with
   | Runner.Streaming ->
    Printf.printf
      "  checker: live high-water %.0f, retired %.0f, epochs %.0f, stale residue \
       %.0f (window %d)\n"
      (gauge o.mx "checker.live_high_water")
      (gauge o.mx "checker.retired") (gauge o.mx "checker.epochs")
      (gauge o.mx "checker.stale_residue") cfg.Runner.check_window
   | _ -> ());
  (* host figure, deliberately not in --out: varies per machine *)
  Printf.printf "  [host] top heap %.1f MB\n"
    (gauge o.mx "gc.top_heap_words" *. 8.0 /. 1e6);
  print_string o.ring;
  match o.spans with
  | Some spans when timeline > 0 ->
    Obs.Export.timeline ~last:timeline spans Format.std_formatter
  | _ -> ()

let write_perfetto (path, oc) o =
  match o.spans with
  | None -> ()
  | Some spans ->
    (* In-flight transactions at the horizon legitimately leave spans
       open; anything else is a bug in the instrumentation. *)
    (match Obs.Export.validate ~allow_open:true spans with
     | Ok s ->
       Printf.printf
         "trace: %d events (%d complete spans, %d async pairs, %d open at horizon)\n"
         s.Obs.Export.v_events s.Obs.Export.v_complete s.Obs.Export.v_async_pairs
         s.Obs.Export.v_open
     | Error e ->
       Printf.eprintf "trace: INVALID: %s\n" e;
       exit 1);
    write oc (Obs.Export.chrome_trace_string spans);
    Printf.printf
      "wrote %s (protocol=%s committed=%d, %.0f tx/s); open in ui.perfetto.dev\n"
      path o.r.Runner.protocol o.r.Runner.committed o.r.Runner.throughput;
    if spans.Sim.Trace.dropped > 0 then
      Printf.printf "note: %d events past the trace capture limit were dropped\n"
        spans.Sim.Trace.dropped

let run_cmd p =
  let open Term.Syntax in
  let file names doc default = arg Arg.(some string) default names ~docv:"FILE" doc in
  let ceiling names ~docv doc = arg Arg.(some int) None names ~docv doc in
  let term =
    let+ pname, proto = protocol_arg
    and+ wname = workload_arg
    and+ cfg = config_term p
    and+ faults_of = faults_term
    and+ seeds =
      arg Arg.int 1 [ "seeds" ] ~docv:"N" "Run N seeds from --seed on (fanned over --jobs)."
    and+ jobs = jobs_arg
    and+ out =
      file [ "o"; "out" ]
        "Write one JSON row per seed. Deterministic (host figures stay on \
         stdout): byte-identical for any --jobs."
        None
    and+ perfetto =
      file [ "perfetto" ]
        "Record the run's spans and write them as Chrome trace_event JSON \
         (Perfetto)."
        p.perfetto
    and+ profile =
      file [ "profile" ] "Write the run summary and every metrics cell as JSON." p.profile
    and+ timeline =
      arg Arg.int 0 [ "timeline" ] ~docv:"N" "Print each run's last N span events as text."
    and+ ring =
      arg Arg.int 0 [ "trace" ] ~docv:"N"
        "Print each run's last N traced events (message sends/handles)."
    and+ check_ceiling =
      ceiling [ "check-ceiling" ] ~docv:"N"
        "Fail (exit 1) if the checker's live-set high-water mark exceeds N. CI's \
         memory-bound smoke uses this."
    and+ heap_ceiling_mb =
      ceiling [ "heap-ceiling-mb" ] ~docv:"MB"
        "Fail (exit 1) if any run's top-of-heap (Gc top_heap_words, the RSS \
         proxy) exceeds MB megabytes."
    in
    let cfg = match cfg with Ok c -> c | Error m -> usage_error "%s" m in
    check_config pname cfg;
    (* the fault schedule is drawn over the checked topology, then
       checked in turn *)
    let cfg = { cfg with Runner.faults = faults_of cfg } in
    check_config pname cfg;
    let jobs = fan_out ~seeds jobs in
    if seeds > 1 && (perfetto <> None || profile <> None) then
      usage_error "--perfetto and --profile record one run: use --seeds 1";
    let mk = find_workload ~n_servers:cfg.Runner.n_servers wname in
    let opened = Option.map (fun path -> (path, open_output path)) in
    let out = opened out and perfetto = opened perfetto and profile = opened profile in
    Printf.printf
      "%s: %s on %s — %d servers, %d clients, %.3g txns offered (%.0f/s over \
       %.2fs simulated)\n\
       %!"
      p.name pname wname cfg.Runner.n_servers cfg.Runner.n_clients
      (cfg.Runner.offered_load *. cfg.Runner.duration)
      cfg.Runner.offered_load cfg.Runner.duration;
    if not (Cluster.Faults.is_none cfg.Runner.faults) then
      Format.printf "faults: %a@." Cluster.Faults.pp cfg.Runner.faults;
    let record = perfetto <> None || timeline > 0 in
    let outcomes =
      Harness.Pool.map ~jobs
        (fun seed ->
          (* the tracer is per domain: turn its readers on in the job's own *)
          if ring > 0 then Sim.Trace.enable ~capacity:(max 4096 ring) ();
          if record then Sim.Trace.start_capture ();
          let mx = Obs.Metrics.create () in
          let r =
            Runner.run ~label:pname ~metrics:mx proto (mk ()) { cfg with Runner.seed }
          in
          let spans = if record then Some (Sim.Trace.stop_capture ()) else None in
          let ring =
            if ring = 0 then ""
            else begin
              Sim.Trace.disable ();
              Format.asprintf "--- last %d traced events (of %d) ---@.%t" ring
                (Sim.Trace.emitted ())
                (Sim.Trace.dump ~last:ring)
            end
          in
          { seed; r; mx; spans; ring })
        (List.init seeds (fun i -> cfg.Runner.seed + i))
    in
    List.iter (report cfg timeline) outcomes;
    Option.iter
      (fun (path, oc) ->
        let row o =
          Harness.Report.bench_row
            ~experiment:
              (Printf.sprintf "%s:%s:%s:%dx%d:s%d" p.name pname wname
                 cfg.Runner.n_servers cfg.Runner.n_clients o.seed)
            o.r
        in
        write oc (Harness.Report.bench_doc ~suite:p.name (List.map row outcomes));
        Printf.printf "wrote %s (%d rows)\n" path (List.length outcomes))
      out;
    let single = List.hd outcomes in
    Option.iter (fun po -> write_perfetto po single) perfetto;
    Option.iter
      (fun (path, oc) ->
        write oc (Harness.Report.profile_json single.r single.mx);
        Printf.printf "wrote %s (protocol=%s committed=%d)\n" path
          single.r.Runner.protocol single.r.Runner.committed)
      profile;
    let worst name =
      List.fold_left (fun m o -> Float.max m (gauge o.mx name)) 0.0 outcomes
    in
    if List.exists (fun o -> Runner.violated o.r) outcomes then begin
      prerr_endline "serializability violation detected";
      exit 1
    end;
    let live = worst "checker.live_high_water" in
    (match check_ceiling with
     | Some c when live > float_of_int c ->
       Printf.eprintf "checker live set exceeded ceiling: %.0f > %d\n" live c;
       exit 1
     | _ -> ());
    let heap_mb = worst "gc.top_heap_words" *. 8.0 /. 1e6 in
    match heap_ceiling_mb with
    | Some mb when heap_mb > float_of_int mb ->
      Printf.eprintf "top heap exceeded ceiling: %.1f MB > %d MB\n" heap_mb mb;
      exit 1
    | _ -> ()
  in
  Cmd.v (Cmd.info p.name ~doc:p.doc) term

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let doc =
    "Seeded chaos runs: each seed derives a randomized fault schedule (message \
     drop/duplication/extra delay, link partitions, server crashes); the \
     resulting history is checked strictly. Failing seeds print a one-command \
     replay line."
  in
  let seeds = arg Arg.int 20 [ "seeds" ] ~docv:"N" "Number of seeded runs." in
  let replay =
    arg Arg.(some int) None [ "replay" ] ~docv:"SEED"
      "Replay the single run for SEED and print its digest and schedule."
  in
  let no_crashes =
    Arg.(
      value & flag
      & info [ "no-crashes" ] ~doc:"Restrict schedules to network faults only.")
  in
  let f (pname, p) wname seeds replay replicas no_crashes check jobs =
    let jobs = fan_out ~seeds jobs in
    (* a chaos seed passes on its checked history: without a check
       there is no verdict to report *)
    if check = Runner.No_check then
      usage_error "chaos checks every seed: --check off leaves no verdict";
    let base =
      {
        Harness.Chaos.base_default with
        Runner.replicas_per_server = replicas;
        check;
      }
    in
    check_config pname base;
    let allow_crashes = (not no_crashes) && replicas = 0 in
    let mk = find_workload ~n_servers:base.Runner.n_servers wname in
    match replay with
    | Some seed ->
      let r = Harness.Chaos.run ~allow_crashes ~base p (mk ()) ~seed in
      Format.printf "%a@.schedule: %a@." Harness.Chaos.pp_report r
        Cluster.Faults.pp r.Harness.Chaos.faults;
      if not r.Harness.Chaos.ok then exit 1
    | None ->
      (* the matrix runs (possibly in parallel) first; reports print
         afterwards in seed order, identically for any --jobs *)
      let reports =
        Harness.Chaos.run_matrix ~jobs ~allow_crashes ~base p
          ~workload:mk
          ~seeds:(List.init seeds (fun i -> i + 1))
      in
      List.iter
        (fun r ->
          Format.printf "%a@." Harness.Chaos.pp_report r;
          if not r.Harness.Chaos.ok then
            Printf.printf "  replay: %s\n"
              (Harness.Chaos.replay_command ~protocol:pname ~workload:wname
                 ~seed:r.Harness.Chaos.seed))
        reports;
      let failed =
        List.length (List.filter (fun r -> not r.Harness.Chaos.ok) reports)
      in
      Printf.printf "%d/%d seeds passed\n" (seeds - failed) seeds;
      if failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const f $ protocol_arg $ workload_arg $ seeds $ replay $ replicas_arg $ no_crashes
      $ check_arg Runner.Streaming $ jobs_arg)

(* --- atlas: the paper's figures and the scenario grids ------------------ *)

let atlas_cmd =
  let doc =
    "Sweep a preset on the --jobs pool: one of the paper's figures or tables, \
     which prints its table as bench/main.exe does, or an atlas scenario grid, \
     which prints its phase diagram as aligned text and writes it as \
     schema-versioned JSON. Output is byte-identical for any --jobs. See \
     docs/atlas.md and 'ncc_sim list' for presets."
  in
  let preset_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PRESET" ~doc:"Figure or scenario name.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs (a figure: a smaller cluster too).")
  in
  let out =
    arg Arg.(some string) None [ "o"; "out" ] ~docv:"FILE"
      "Output file for a scenario's phase-diagram JSON (default \
       atlas_<scenario>.json). A figure writes no file."
  in
  let seeds =
    arg Arg.(some int) None [ "seeds" ] ~docv:"N"
      "Override a scenario's seed list with seeds 1..N."
  in
  let check =
    arg Arg.(some (enum Runner.check_levels)) None [ "check" ] ~docv:"LEVEL"
      ~absent:"the preset's level" "History check of every cell: $(b,on), $(b,ser) or $(b,off). Scenarios and \
       quick figures default to $(b,on), full-scale figures to $(b,off). A \
       violation is a per-cell verdict, never a sweep abort."
  in
  let f name quick jobs out seeds check =
    let jobs = fan_out ?seeds jobs in
    let p =
      match Atlas.Preset.find name with
      | Some p -> p
      | None ->
        usage_error "unknown preset %S (one of: %s)" name
          (String.concat ", " Atlas.Preset.names)
    in
    let s = p.make ~quick in
    match p.report with
    | Atlas.Preset.Figure report ->
      (* a figure prints its table; bench/main.exe writes its BENCH rows *)
      if seeds <> None then usage_error "%s is a figure: it runs one seed" p.name;
      if out <> None then
        usage_error "%s is a figure: it writes no file (bench/main.exe writes its rows)" p.name;
      ignore (report (Atlas.Driver.run ~jobs ?check s))
    | Atlas.Preset.Phase_diagram ->
      let path = Option.value out ~default:(Printf.sprintf "atlas_%s.json" s.name) in
      let oc = open_output path in
      let seeds = Option.map (fun n -> List.init n (fun i -> i + 1)) seeds in
      let sweep = Atlas.Driver.run ~jobs ?check ?seeds s in
      let d = Atlas.Diagram.reduce sweep in
      print_string (Atlas.Report.text sweep d);
      write oc (Atlas.Report.json sweep d);
      Printf.printf "wrote %s (%d cells, %d violations, schema v%d)\n" path d.total_cells
        d.total_violations Atlas.Report.schema_version
  in
  Cmd.v (Cmd.info "atlas" ~doc)
    Term.(const f $ preset_arg $ quick_arg $ jobs_arg $ out $ seeds $ check)

let () =
  let doc = "NCC (OSDI 2023) reproduction: simulated strictly serializable datastores" in
  let info = Cmd.info "ncc_sim" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           list_cmd;
           run_cmd run_preset;
           run_cmd scale_preset;
           chaos_cmd;
           atlas_cmd;
           run_cmd trace_preset;
           run_cmd profile_preset;
         ])
  in
  (* a flag value Cmdliner rejects is a usage error like any other *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
