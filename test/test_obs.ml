(* The observability plane: span capture and validator invariants,
   exporter golden files over a tiny deterministic run, the metrics
   registry, and the observer-effect property — turning every tracer
   reader and a metrics registry on changes nothing about a run's
   result. *)

open Kernel

(* --- capture + validator invariants ----------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let captured f =
  Sim.Trace.start_capture ();
  f ();
  Sim.Trace.stop_capture ()

let emit ?(time = 1.0) ?(src = 0) ?(dst = 0) ?(start = 0.0) ?(dur = 0.0) ?(id = 0)
    ?(code = 0) kind =
  Sim.Trace.emit ~time kind ~src ~dst ~x:0.0 ~start ~dur ~id ~code

let capture_basics () =
  let c =
    captured (fun () ->
        emit Track ~src:1 ~code:Sim.Trace.client_track;
        emit Track ~src:0 ~code:Sim.Trace.server_track;
        emit Handle ~time:1.5 ~src:1 ~dst:0 ~start:1.0 ~dur:0.5
          ~code:(Obs.Phase.code Obs.Phase.Execute);
        emit Txn_begin ~src:1 ~id:7;
        emit Attempt_begin ~src:1 ~id:7;
        emit Attempt_end ~time:2.0 ~src:1 ~id:7 ~code:(-1);
        emit Txn_end ~time:2.0 ~src:1 ~id:7 ~code:1;
        emit Shed ~time:2.5 ~src:1;
        emit Dropped ~time:2.6 ~src:1 ~dst:0)
  in
  Alcotest.(check int) "events retained (no span, not kept)" 8
    (Array.length c.Sim.Trace.events);
  Alcotest.(check int) "nothing dropped" 0 c.Sim.Trace.dropped;
  let json = Obs.Export.chrome_trace_string c in
  Alcotest.(check bool) "tracks named in node order" true
    (contains json
       ({|"tid":0,"args":{"name":"server 0"}},|}
       ^ {|{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"client 1"}}|}));
  (match Obs.Export.validate c with
   | Ok s ->
     Alcotest.(check int) "span events" 6 s.Obs.Export.v_events;
     Alcotest.(check int) "complete spans" 1 s.Obs.Export.v_complete;
     Alcotest.(check int) "async pairs" 2 s.Obs.Export.v_async_pairs;
     Alcotest.(check int) "none open" 0 s.Obs.Export.v_open
   | Error e -> Alcotest.failf "balanced trace rejected: %s" e);
  (* nothing but a capture sees the span kinds *)
  Sim.Trace.enable ~capacity:8 ();
  Sim.Trace.reset_digest ();
  let empty = Sim.Trace.digest () in
  Sim.Trace.enable_digest ();
  emit Txn_begin ~src:1 ~id:8;
  Sim.Trace.disable_digest ();
  Sim.Trace.disable ();
  Alcotest.(check int) "ring skips spans" 0 (Sim.Trace.emitted ());
  Alcotest.(check string) "digest skips spans" empty (Sim.Trace.digest ())

let capture_limit () =
  Sim.Trace.start_capture ~limit:3 ();
  for i = 1 to 5 do
    emit Shed ~time:(float_of_int i)
  done;
  emit Track ~src:2 ~code:Sim.Trace.client_track;
  let c = Sim.Trace.stop_capture () in
  Alcotest.(check int) "capped, track names kept" 4 (Array.length c.Sim.Trace.events);
  Alcotest.(check int) "overflow counted" 2 c.Sim.Trace.dropped;
  (* the retained prefix is the oldest events, deterministically *)
  Alcotest.(check (float 0.0)) "oldest event first" 1.0
    c.Sim.Trace.events.(0).Sim.Trace.ev_time

let validate_catches_imbalance () =
  let err c = match Obs.Export.validate c with Ok _ -> None | Error e -> Some e in
  (* end without begin *)
  let c1 = captured (fun () -> emit Arrive ~id:1) in
  Alcotest.(check bool) "unmatched end rejected" true (err c1 <> None);
  (* begin without end: error by default, fine when open spans allowed *)
  let c2 = captured (fun () -> emit Send ~id:1) in
  Alcotest.(check bool) "open span rejected" true (err c2 <> None);
  (match Obs.Export.validate ~allow_open:true c2 with
   | Ok s -> Alcotest.(check int) "open span counted" 1 s.Obs.Export.v_open
   | Error e -> Alcotest.failf "allow_open still rejected: %s" e);
  (* negative duration *)
  let c3 = captured (fun () -> emit Handle ~start:1.0 ~dur:(-0.1)) in
  Alcotest.(check bool) "negative duration rejected" true (err c3 <> None);
  (* same (cat, id) nests stack-wise: inner end matches inner begin *)
  let c4 =
    captured (fun () ->
        emit Txn_begin ~id:1;
        emit Attempt_begin ~time:2.0 ~id:1;
        emit Attempt_end ~time:3.0 ~id:1)
  in
  Alcotest.(check bool) "inner closed, outer still open" true (err c4 <> None);
  let c5 =
    captured (fun () ->
        emit Txn_begin ~id:1;
        emit Attempt_begin ~time:2.0 ~id:1;
        emit Attempt_end ~time:3.0 ~id:1;
        emit Txn_end ~time:4.0 ~id:1 ~code:(-1))
  in
  Alcotest.(check bool) "balanced after outer end" true (err c5 = None)

(* --- JSON writer ------------------------------------------------------- *)

let jsonw_format () =
  let s v = Obs.Jsonw.to_string v in
  Alcotest.(check string) "integral float" "42" (s (Obs.Jsonw.Float 42.0));
  Alcotest.(check string) "fractional float" "0.25" (s (Obs.Jsonw.Float 0.25));
  Alcotest.(check string) "non-finite is null" "null"
    (s (Obs.Jsonw.Float Float.infinity));
  Alcotest.(check string) "nan is null" "null" (s (Obs.Jsonw.Float Float.nan));
  Alcotest.(check string) "escaping" {|"a\"b\\c\n"|}
    (s (Obs.Jsonw.Str "a\"b\\c\n"));
  Alcotest.(check string) "object"
    {|{"a":1,"b":[true,null]}|}
    (s
       (Obs.Jsonw.Obj
          [
            ("a", Obs.Jsonw.Int 1);
            ("b", Obs.Jsonw.List [ Obs.Jsonw.Bool true; Obs.Jsonw.Null ]);
          ]))

(* --- metrics registry -------------------------------------------------- *)

let metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m ~node:0 "execs" 2.0;
  Obs.Metrics.add m ~node:1 "execs" 3.0;
  Obs.Metrics.add m "net.dropped" 1.0;
  Obs.Metrics.set_gauge m "run.throughput_tps" 123.0;
  Obs.Metrics.observe m "txn.latency_s" 0.1;
  Obs.Metrics.observe m "txn.latency_s" 0.2;
  Alcotest.(check (list (pair string (float 1e-9))))
    "totals sum across nodes, sorted by name"
    [ ("execs", 5.0); ("net.dropped", 1.0) ]
    (Obs.Metrics.counter_totals m);
  let h = Obs.Metrics.hist m "txn.latency_s" in
  Alcotest.(check int) "hist samples" 2 (Stats.Hist.count h);
  Alcotest.(check bool) "p999 defined" true (Stats.Hist.p999 h > 0.0);
  (* empty histogram: every summary statistic is the defined 0.0 *)
  let e = Stats.Hist.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Hist.mean e);
  Alcotest.(check (float 0.0)) "empty p999" 0.0 (Stats.Hist.p999 e);
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Stats.Hist.percentile e 0.5)

(* The registry keeps counters and gauges in flat per-family arrays.
   This is the (name, node)-keyed table registry it replaced, with
   every read of the same shape; random operation sequences must read
   back identically from both, to the float bits and the JSON bytes. *)
module Table_registry = struct
  module J = Obs.Jsonw

  type t = {
    counters : (string * int, float ref) Hashtbl.t;
    gauges : (string * int, float ref) Hashtbl.t;
    hists : (string * int, Stats.Hist.t) Hashtbl.t;
  }

  let create () =
    { counters = Hashtbl.create 8; gauges = Hashtbl.create 8; hists = Hashtbl.create 8 }

  let get tbl mk key =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
      let c = mk () in
      Hashtbl.replace tbl key c;
      c

  let counter t node name = get t.counters (fun () -> ref 0.0) (name, node)
  let add t node name v = let c = counter t node name in c := !c +. v
  let set_gauge t node name v = get t.gauges (fun () -> ref 0.0) (name, node) := v
  let observe t node name v = Stats.Hist.add (get t.hists Stats.Hist.create (name, node)) v
  let cells tbl = List.map (fun (k, c) -> (k, !c)) (Detmap.sorted_bindings tbl)
  let counters t = cells t.counters
  let gauges t = cells t.gauges

  let counter_totals t =
    let tot = Hashtbl.create 8 in
    List.iter
      (fun ((name, _), v) ->
        Hashtbl.replace tot name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt tot name)))
      (counters t);
    Detmap.sorted_bindings tot

  let to_json t =
    let scope node = if node = -1 then J.Null else J.Int node in
    let hist h =
      let q p = J.Float (Stats.Hist.percentile h p) in
      J.Obj
        [
          ("count", J.Int (Stats.Hist.count h));
          ("mean", J.Float (Stats.Hist.mean h));
          ("min", J.Float (Stats.Hist.min_value h));
          ("max", J.Float (Stats.Hist.max_value h));
          ("p50", q 0.50);
          ("p90", q 0.90);
          ("p99", q 0.99);
          ("p999", q 0.999);
        ]
    in
    let scoped f l =
      J.List
        (List.map
           (fun ((name, node), v) ->
             J.Obj [ ("name", J.Str name); ("node", scope node); ("value", f v) ])
           l)
    in
    J.Obj
      [
        ("totals", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (counter_totals t)));
        ("counters", scoped (fun v -> J.Float v) (counters t));
        ("gauges", scoped (fun v -> J.Float v) (gauges t));
        ("histograms", scoped hist (Detmap.sorted_bindings t.hists));
      ]
end

type metric_op =
  | Add of int * string * float
  | Inc of int * string * float  (* through a [counter] handle *)
  | Set of int * string * float
  | Observe of int * string * float

let flat_registry_matches_table =
  let op =
    QCheck.Gen.(
      let node = oneofl [ -1; 0; 1; 2; 3; 10_000 ] in
      let name = oneofl [ "execs"; "net.dropped"; "a"; "cpu.busy_s"; "z.z" ] in
      let v = oneofl [ 0.0; 1.0; 0.1; 3.0; 1e-7; 2.5e9; -0.25 ] in
      let cell k = map3 k node name v in
      frequency
        [
          (4, cell (fun n s v -> Add (n, s, v)));
          (2, cell (fun n s v -> Inc (n, s, v)));
          (3, cell (fun n s v -> Set (n, s, v)));
          (1, cell (fun n s v -> Observe (n, s, Float.abs v +. 1e-6)));
        ])
  in
  QCheck.Test.make ~name:"flat metrics registry = (name, node) table registry"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 60) op))
    (fun script ->
      let m = Obs.Metrics.create () and r = Table_registry.create () in
      List.iter
        (function
          | Add (node, name, v) ->
            Obs.Metrics.add m ~node name v;
            Table_registry.add r node name v
          | Inc (node, name, v) ->
            Obs.Metrics.inc (Obs.Metrics.counter m ~node name) v;
            Table_registry.add r node name v
          | Set (node, name, v) ->
            Obs.Metrics.set_gauge m ~node name v;
            Table_registry.set_gauge r node name v
          | Observe (node, name, v) ->
            Obs.Metrics.observe m ~node name v;
            Table_registry.observe r node name v)
        script;
      let bits l = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) l in
      bits (Obs.Metrics.counters m) = bits (Table_registry.counters r)
      && bits (Obs.Metrics.gauges m) = bits (Table_registry.gauges r)
      && bits (Obs.Metrics.counter_totals m) = bits (Table_registry.counter_totals r)
      && String.equal
           (Obs.Jsonw.to_string (Obs.Metrics.to_json m))
           (Obs.Jsonw.to_string (Table_registry.to_json r)))

(* --- exporter golden files over a tiny deterministic run -------------- *)

(* Two servers, two clients, two transactions through the Testbed with
   the span capture on; the exported Chrome trace and text timeline are
   compared byte-for-byte against checked-in goldens. On mismatch the
   actual bytes are written next to the test so the golden can be
   inspected and refreshed deliberately. *)
let tiny_traced_run () =
  Sim.Trace.start_capture ();
  let bed =
    Harness.Testbed.make ~n_servers:2 ~n_clients:2 Ncc.protocol
      ~on_outcome:(fun ~client:_ _ -> ())
  in
  (match bed.Harness.Testbed.clients with
   | c0 :: c1 :: _ ->
     bed.Harness.Testbed.submit ~client:c0
       (Txn.make ~client:c0 [ [ Types.Write (1, 7); Types.Read 2 ] ]);
     bed.Harness.Testbed.after 0.001 (fun () ->
         bed.Harness.Testbed.submit ~client:c1
           (Txn.make ~client:c1 [ [ Types.Read 1 ] ]));
     bed.Harness.Testbed.run_until_quiet ()
   | _ -> Alcotest.fail "expected two clients");
  Sim.Trace.stop_capture ()

let exporter_goldens () =
  let r = tiny_traced_run () in
  (* quiet network: every message delivered and serviced, so the trace
     must be fully balanced with no open spans *)
  (match Obs.Export.validate r with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "tiny run trace invalid: %s" e);
  Golden.check ~name:"trace_ncc_tiny.json" (Obs.Export.chrome_trace_string r);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Export.timeline r ppf;
  Format.pp_print_flush ppf ();
  Golden.check ~name:"timeline_ncc_tiny.txt" (Buffer.contents buf)

(* A streaming-checked run traces its checker on a "checker" track:
   inline epochs, then the finalize instant with the verdict. *)
let checker_spans () =
  let cfg =
    {
      Harness.Runner.default with
      Harness.Runner.n_servers = 2;
      n_clients = 4;
      offered_load = 2_000.0;
      duration = 0.2;
      warmup = 0.0;
      drain = 0.1;
      check = Harness.Runner.Streaming;
      check_window = 32;
    }
  in
  Sim.Trace.start_capture ();
  let r = Harness.Runner.run Ncc.protocol (Workload.Google_f1.make ~n_keys:200 ()) cfg in
  let c = Sim.Trace.stop_capture () in
  Alcotest.(check bool) "run checked clean" false (Harness.Runner.violated r);
  let count p =
    Array.fold_left (fun n e -> if p e.Sim.Trace.ev_kind then n + 1 else n) 0
      c.Sim.Trace.events
  in
  Alcotest.(check bool) "epochs traced" true
    (count (function Sim.Trace.Epoch -> true | _ -> false) > 0);
  Alcotest.(check int) "one finalize" 1
    (count (function Sim.Trace.Finalize -> true | _ -> false));
  let json = Obs.Export.chrome_trace_string c in
  Alcotest.(check bool) "checker track named" true
    (contains json
       (Printf.sprintf {|"tid":%d,"args":{"name":"checker"}|} (cfg.n_servers + cfg.n_clients)));
  Alcotest.(check bool) "finalize carries the verdict" true
    (contains json {|"name":"finalize","cat":"checker"|} && contains json {|"verdict":"ok"|});
  match Obs.Export.validate ~allow_open:true c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "checked-run trace invalid: %s" e

(* The `ncc_sim profile -w tpcc --check on` document, byte for byte:
   the profile preset's config (4 servers, 8 clients, 2k txn/s over
   0.2 s, seed 42) on TPC-C, so per-node counters, the per-node
   cpu.busy_s gauges, aborts.<reason> and the checker gauges all
   appear. The three gc.* gauges measure the host and are zeroed. *)
let profile_golden () =
  let module R = Harness.Runner in
  let cfg =
    {
      R.default with
      R.n_servers = 4;
      n_clients = 8;
      offered_load = 2_000.0;
      duration = 0.2;
      warmup = 0.05;
      drain = 0.05;
      check = R.Streaming;
    }
  in
  let mk =
    match Workload.Registry.find ~n_servers:cfg.R.n_servers "tpcc" with
    | Some mk -> mk
    | None -> Alcotest.fail "tpcc workload not registered"
  in
  let mx = Obs.Metrics.create () in
  let r = R.run ~label:"NCC" ~metrics:mx Ncc.protocol (mk ()) cfg in
  List.iter
    (fun g -> Obs.Metrics.set_gauge mx g 0.0)
    [ "gc.minor_words"; "gc.major_collections"; "gc.top_heap_words" ];
  Golden.check ~name:"profile_ncc_tpcc.json" (Harness.Report.profile_json r mx)

(* --- observer effect --------------------------------------------------- *)

(* Tracing with every reader on (ring, digest and span capture) plus a
   metrics registry must not change the run: tracing draws no
   randomness and schedules no events, so the result records are
   field-for-field identical. Checked for NCC and a baseline with a
   different message/abort structure (dOCC). *)
let observer_effect (pname, p) =
  QCheck.Test.make
    ~name:(Printf.sprintf "observer effect is zero (%s)" pname)
    ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        {
          Harness.Runner.default with
          Harness.Runner.seed;
          n_servers = 3;
          n_clients = 6;
          offered_load = 800.0;
          duration = 0.4;
          warmup = 0.1;
          drain = 0.3;
          check = Harness.Runner.Streaming;
          series_width = Some 0.1;
        }
      in
      let run ?metrics () =
        Harness.Runner.run ?metrics p (Workload.Google_f1.make ~n_keys:500 ()) cfg
      in
      let a = run () in
      let mx = Obs.Metrics.create () in
      Sim.Trace.enable ();
      Sim.Trace.reset_digest ();
      let empty = Sim.Trace.digest () in
      Sim.Trace.enable_digest ();
      Sim.Trace.start_capture ();
      let b = run ~metrics:mx () in
      let spans = Sim.Trace.stop_capture () in
      Sim.Trace.disable_digest ();
      Sim.Trace.disable ();
      (* the instrumented run did record something... *)
      if Array.length spans.Sim.Trace.events = 0 then
        QCheck.Test.fail_report "instrumented run captured no events";
      if Sim.Trace.emitted () = 0 then QCheck.Test.fail_report "ring saw no events";
      if String.equal (Sim.Trace.digest ()) empty then
        QCheck.Test.fail_report "digest folded no events";
      (match Obs.Export.validate ~allow_open:true spans with
       | Ok _ -> ()
       | Error e -> QCheck.Test.fail_reportf "trace invalid: %s" e);
      (* ...and changed nothing. *)
      let open Harness.Runner in
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
        QCheck.Test.fail_reportf "observer changed the run: %s"
          (String.concat ", " diffs))

let suite =
  [
    Alcotest.test_case "span capture basics" `Quick capture_basics;
    Alcotest.test_case "span capture event limit" `Quick capture_limit;
    Alcotest.test_case "validator catches imbalance" `Quick
      validate_catches_imbalance;
    Alcotest.test_case "json writer format" `Quick jsonw_format;
    Alcotest.test_case "metrics registry" `Quick metrics_registry;
    Alcotest.test_case "exporter goldens (tiny NCC run)" `Quick exporter_goldens;
    Alcotest.test_case "checker spans of a streaming run" `Quick checker_spans;
    Alcotest.test_case "profile document golden (NCC TPC-C, checked)" `Quick
      profile_golden;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        flat_registry_matches_table;
        observer_effect ("NCC", Ncc.protocol);
        observer_effect ("dOCC", Baselines.docc);
      ]
