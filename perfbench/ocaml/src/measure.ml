(* One measured run of a case in this process, and the correctness
   checks every run must pass. *)

module Runner = Harness.Runner

type mode = Plain | Traced | Traced_nocheck

type run = {
  result : Runner.result;
  digest : string;  (* Sim.Trace digest, chaos cases only *)
  host_ns : int;  (* wall time of Runner.run, less the ticks *)
  ticks_ns : int list;  (* Calib.tick_ns samples taken during the run (plain only) *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;  (* process lifetime high-water mark *)
  latencies : float array;  (* in-window commit latencies, sorted, sim s *)
  arrivals : int;  (* in-window arrivals: admitted plus shed *)
  events : int;
  versions : int;  (* versions created in server stores (traced only) *)
  checker_commits : float;  (* commits the checker saw, whole run *)
  checker_live_hw : float;
  checker_epochs : float;
  probe : Probe.snapshot option;
}

let gauge mx name =
  Option.value ~default:0.0
    (List.assoc_opt (name, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx))

let run ?(gc_events = true) mode (c : Cases.case) =
  let config =
    match mode with
    | Traced_nocheck -> { c.config with Runner.check = Runner.No_check }
    | Plain | Traced -> c.config
  in
  let workload = c.workload () in
  Wrap.Sim_lat.reset config;
  Wrap.Sim_lat.calibrate := (mode = Plain);
  Wrap.stores := [];
  let traced = match mode with Plain -> false | Traced | Traced_nocheck -> true in
  let protocol, workload =
    if traced then (Wrap.traced c.protocol, Wrap.traced_workload workload)
    else (Wrap.plain c.protocol, Wrap.plain_workload workload)
  in
  let mx = Obs.Metrics.create () in
  if c.digest then begin
    Sim.Trace.reset_digest ();
    Sim.Trace.enable_digest ()
  end;
  let g0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  if traced then Probe.start ~gc_events;
  let result = Runner.run ~metrics:mx protocol workload config in
  let probe = if traced then Some (Probe.stop ()) else None in
  let t1 = Probe.now_ns () in
  let g1 = Gc.quick_stat () in
  let digest =
    if c.digest then begin
      let d = Sim.Trace.digest () in
      Sim.Trace.disable_digest ();
      d
    end
    else ""
  in
  let ticks = !Wrap.Sim_lat.ticks in
  {
    result;
    digest;
    host_ns = t1 - t0 - List.fold_left ( + ) 0 ticks;
    ticks_ns = ticks;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
    latencies = Wrap.Sim_lat.latencies ();
    arrivals = !Wrap.Sim_lat.arrivals + result.Runner.dropped;
    events =
      (match !Wrap.Sim_lat.engine with
       | Some e -> Sim.Engine.executed_events e
       | None -> 0);
    versions =
      List.fold_left (fun n s -> n + Mvstore.Store.versions_created s) 0 !Wrap.stores;
    checker_commits = gauge mx "checker.commits";
    checker_live_hw = gauge mx "checker.live_high_water";
    checker_epochs = gauge mx "checker.epochs";
    probe;
  }

(* Host time to build the workload and the cluster up to the first
   simulated event: a run with a zero-length window. *)
let setup_ns (c : Cases.case) =
  let t0 = Probe.now_ns () in
  let w = c.workload () in
  ignore
    (Runner.run c.protocol w
       { c.config with Runner.warmup = 0.0; duration = 0.0; drain = 0.0 });
  Probe.now_ns () - t0

(* The sample at rank ceil(q n), the rank Stats.Hist.percentile uses. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 1 (int_of_float (ceil (q *. float_of_int n))) - 1)

let verdict_ok s = String.length s >= 2 && String.sub s 0 2 = "ok"

(* Every field of the result, floats in exact hex, for field-by-field
   comparison across processes. The pattern names every field, so a new
   field fails the build until it is compared too. *)
let fingerprint (r : Runner.result) =
  let {
    Runner.protocol;
    workload;
    offered;
    committed;
    gave_up;
    attempts;
    aborts;
    dropped;
    throughput;
    mean_latency;
    p50;
    p90;
    p99;
    p999;
    messages;
    msgs_per_commit;
    max_utilization;
    counters;
    series;
    check_result;
  } =
    r
  in
  let f = Printf.sprintf "%h" and i = string_of_int in
  let assoc to_s l = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ to_s v) l) in
  [
    ("protocol", protocol);
    ("workload", workload);
    ("offered", f offered);
    ("committed", i committed);
    ("gave_up", i gave_up);
    ("attempts", i attempts);
    ("aborts", assoc i aborts);
    ("dropped", i dropped);
    ("throughput", f throughput);
    ("mean_latency", f mean_latency);
    ("p50", f p50);
    ("p90", f p90);
    ("p99", f p99);
    ("p999", f p999);
    ("messages", i messages);
    ("msgs_per_commit", f msgs_per_commit);
    ("max_utilization", f max_utilization);
    ("counters", assoc f counters);
    ("series", String.concat ";" (List.map (fun (t, v) -> f t ^ "," ^ f v) series));
    ("check_result", check_result);
  ]

let errors mode (r : run) =
  let res = r.result in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match mode with
   | Traced_nocheck ->
     if res.check_result <> "skipped" then
       fail "unchecked twin reported %S" res.check_result
   | Plain | Traced ->
     if not (verdict_ok res.check_result) then
       fail "checker verdict: %s" res.check_result);
  if res.committed = 0 then fail "no transaction committed";
  if res.gave_up > 0 then fail "%d transactions gave up" res.gave_up;
  if Array.length r.latencies <> res.committed then
    fail "%d latency samples for %d commits" (Array.length r.latencies) res.committed;
  if r.arrivals < res.committed then
    fail "%d in-window arrivals for %d commits" r.arrivals res.committed;
  (match r.probe with
   | Some p when p.Probe.gc_lost_events > 0 ->
     fail "%d GC events lost" p.Probe.gc_lost_events
   | _ -> ());
  List.rev !errs
