(* The timing-wheel scheduler and the cluster-scale runner features
   that ride on it. The load-bearing property throughout: the wheel
   and the binary heap are observationally identical — same delivery
   order, byte-identical runs — so the engine's move from one to the
   other is purely a cost choice. *)

(* Priorities that stress every wheel path at once: a dense sub-window
   cluster (same-level buckets, sub-resolution ties), exact-tick
   bursts (FIFO among equal priorities), mid-span outliers (higher
   levels + cascades) and beyond-span outliers (the overflow heap). *)
let prio_gen =
  QCheck.Gen.(
    frequency
      [
        (6, float_bound_inclusive 0.01);
        (3, map (fun k -> float_of_int k *. 1e-6) (int_bound 20));
        (1, map (fun x -> 1000.0 +. x) (float_bound_inclusive 1.0));
        (1, map (fun x -> 1.0e7 +. x) (float_bound_inclusive 1.0));
      ])

let prios = QCheck.make ~print:QCheck.Print.(list float) QCheck.Gen.(list prio_gen)

let wheel_heap_same_drain =
  QCheck.Test.make ~name:"wheel drains exactly like the heap" ~count:300 prios
    (fun ps ->
      let w = Sim.Wheel.create () in
      let h = Sim.Heap.create () in
      List.iteri
        (fun i p ->
          Sim.Wheel.schedule w p i;
          Sim.Heap.push h p i)
        ps;
      let rec drain acc =
        if Sim.Wheel.is_empty w then List.rev acc
        else begin
          let p = Sim.Wheel.top_prio w in
          let v = Sim.Wheel.pop_min w in
          drain ((p, v) :: acc)
        end
      in
      let rec drain_heap acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (p, v) -> drain_heap ((p, v) :: acc)
      in
      let a = drain [] and b = drain_heap [] in
      List.equal (fun (p, v) (q, u) -> Float.equal p q && Int.equal v u) a b)

(* Interleaved schedule/pop churn under the engine's monotonicity
   contract (never schedule below the last popped priority): delivery
   stays identical while base advances through the schedule. *)
let wheel_heap_interleaved =
  QCheck.Test.make ~name:"wheel = heap under interleaved schedule/pop"
    ~count:200
    QCheck.(pair (int_range 1 9999) (int_range 1 200))
    (fun (seed, rounds) ->
      let rng = Sim.Rng.create seed in
      let w = Sim.Wheel.create () in
      let h = Sim.Heap.create () in
      let floor = ref 0.0 in
      let next_id = ref 0 in
      let out_w = ref [] and out_h = ref [] in
      for _ = 1 to rounds do
        let burst = Sim.Rng.int rng 4 in
        for _ = 0 to burst do
          let p = !floor +. Sim.Rng.float rng 0.005 in
          Sim.Wheel.schedule w p !next_id;
          Sim.Heap.push h p !next_id;
          incr next_id
        done;
        let pops = Sim.Rng.int rng 3 in
        for _ = 1 to pops do
          if not (Sim.Wheel.is_empty w) then begin
            floor := Sim.Wheel.top_prio w;
            out_w := Sim.Wheel.pop_min w :: !out_w;
            out_h :=
              (match Sim.Heap.pop h with Some (_, v) -> v | None -> -1)
              :: !out_h
          end
        done
      done;
      while not (Sim.Wheel.is_empty w) do
        out_w := Sim.Wheel.pop_min w :: !out_w;
        out_h :=
          (match Sim.Heap.pop h with Some (_, v) -> v | None -> -1) :: !out_h
      done;
      Sim.Heap.is_empty h && List.equal Int.equal !out_w !out_h)

(* The engine-level restatement, with dynamic scheduling: the engine
   starts on the heap and moves to the wheel the first time
   [Sim.Engine.wheel_at] events are pending. A schedule that crosses
   that mark mid-run — long-delay events piling up, batches sharing one
   absolute time (ties pending across the switch), zero-delay
   same-instant bursts, far-future stragglers — must be delivered
   exactly as a plain [Sim.Heap] loop delivers it. RNG draws happen
   inside handlers, so any ordering divergence compounds and cannot
   cancel out. *)
let engine_sched_identity () =
  let drive ~schedule ~schedule_at ~now ~pending ~run =
    let rng = Sim.Rng.create 7 in
    let log = ref [] and peak = ref 0 in
    let note id = log := (now (), id) :: !log in
    let rec tick n =
      note n;
      peak := max !peak (pending ());
      if n < 12_000 then begin
        schedule (Sim.Rng.float rng 0.002) (fun () -> tick (n + 1));
        if n < 6_000 then schedule (Sim.Rng.float rng 20.0) (fun () -> note (200_000 + n));
        if n < 6_000 then schedule_at (float_of_int ((n / 100) + 7)) (fun () -> note (300_000 + n));
        if n mod 7 = 0 then schedule 0.0 (fun () -> note (-n));
        if n mod 131 = 0 then schedule 50.0 (fun () -> note (100_000 + n))
      end
    in
    schedule 0.0 (fun () -> tick 0);
    run ();
    (List.rev !log, !peak)
  in
  let e = Sim.Engine.create () in
  let log_e, peak =
    drive
      ~schedule:(fun delay f -> Sim.Engine.schedule e ~delay f)
      ~schedule_at:(fun time f -> Sim.Engine.schedule_at e ~time f)
      ~now:(fun () -> Sim.Engine.now e)
      ~pending:(fun () -> Sim.Engine.pending e)
      ~run:(fun () -> Sim.Engine.run e)
  in
  let h = Sim.Heap.create () and clock = ref 0.0 in
  let log_h, _ =
    drive
      ~schedule:(fun delay f -> Sim.Heap.push h (!clock +. delay) f)
      ~schedule_at:(fun time f -> Sim.Heap.push h time f)
      ~now:(fun () -> !clock)
      ~pending:(fun () -> Sim.Heap.length h)
      ~run:(fun () ->
        while not (Sim.Heap.is_empty h) do
          let p = Sim.Heap.top_prio h in
          let f = Sim.Heap.pop_min h in
          clock := p;
          f ()
        done)
  in
  Alcotest.(check bool) "the schedule crosses the switch mark" true
    (peak >= Sim.Engine.wheel_at);
  Alcotest.(check int) "same event count" (List.length log_h) (List.length log_e);
  Alcotest.(check int) "engine counts every event" (List.length log_e)
    (Sim.Engine.executed_events e);
  Alcotest.(check bool) "same (time, id) delivery log" true
    (List.equal (fun (t, i) (u, j) -> Float.equal t u && Int.equal i j) log_h log_e)

(* Steady-state churn holds no garbage: after the capacity high-water
   mark is reached, a million further schedule/pop cycles leave the
   retained footprint exactly where it was. Catches both event leaks
   (count would keep capacities growing) and bucket-capacity creep. *)
let wheel_churn_footprint () =
  let n = 4096 in
  let span_ticks = n / 4 in
  let span = float_of_int span_ticks *. 1e-6 in
  let w = Sim.Wheel.create () in
  for i = 0 to n - 1 do
    Sim.Wheel.schedule w (float_of_int (i * 7919 mod span_ticks) *. 1e-6) i
  done;
  let churn k =
    for _ = 1 to k do
      let p = Sim.Wheel.top_prio w in
      let v = Sim.Wheel.pop_min w in
      Sim.Wheel.schedule w (p +. span) v
    done
  in
  (* warm every level-1 slot: one full wrap of level 1 is 2^16 ticks
     and base advances span_ticks per n churns, so 300k churns pass it;
     each first-touched slot retains up to [keep_cap], which is the
     one-off geometry cost the baseline must already include *)
  churn 300_000;
  let f1 = Sim.Wheel.footprint_words w in
  churn 1_000_000;
  let f2 = Sim.Wheel.footprint_words w in
  Alcotest.(check int) "pending unchanged" n (Sim.Wheel.length w);
  (* flat: a million further churns add at most the few hundred words
     of first-touched level-2 slots (drained oversized buckets give
     their capacity back; without the shrink this creeps by ~100 words
     per 256 ticks forever) *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint flat across 1M churn (%d -> %d)" f1 f2)
    true (f2 - f1 <= 2048);
  (* absolute: bounded by the pending population and the wheel's own
     geometry, not by the 1.1M events that passed through *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint near the pending population (%d)" f2)
    true (f2 < 64 * n)

(* The arena claim behind `send_clean`: once the freelist has grown to
   the steady-state in-flight population, a message allocates no
   closure, flight record or option. Without flambda a handful of
   transient boxed floats per message is irreducible (every RNG draw,
   latency sample and schedule delay crosses a module boundary), so
   the assertion is a small *flat* constant: well under the closure
   regime's cost, and independent of how many messages have flowed.
   The send is handler-driven so one [Engine.run] covers the whole
   window and no per-message test scaffolding pollutes the count. *)
let net_dispatch_zero_alloc () =
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
  let served = ref 0 and remaining = ref 0 in
  Cluster.Net.set_handler net 0 ~cost:(fun _ -> 1e-6)
    ~handler:(fun ~src:_ m ->
      incr served;
      if !remaining > 0 then begin
        decr remaining;
        Cluster.Net.send net ~src:0 ~dst:0 m
      end);
  let window k =
    remaining := k - 1;
    Cluster.Net.send net ~src:1 ~dst:0 0;
    Sim.Engine.run engine
  in
  window 1_000 (* grow the arena and the engine queue *);
  let before = Gc.minor_words () in
  let n = 10_000 in
  window n;
  let per_msg = (Gc.minor_words () -. before) /. float_of_int n in
  let before2 = Gc.minor_words () in
  window (2 * n);
  let per_msg2 = (Gc.minor_words () -. before2) /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "bounded words/message (got %.1f)" per_msg)
    true (per_msg < 48.0);
  Alcotest.(check bool)
    (Printf.sprintf "flat across window sizes (%.1f vs %.1f)" per_msg per_msg2)
    true (Float.abs (per_msg2 -. per_msg) < 2.0);
  Alcotest.(check int) "all delivered" (1_000 + n + (2 * n)) !served

(* GC telemetry lands in the registry as run-scoped gauges (satellite:
   BENCH rows read these), and never in the result record — parity
   byte-diffs stay clean. *)
let runner_gc_gauges () =
  let mx = Obs.Metrics.create () in
  let cfg =
    {
      Harness.Runner.default with
      Harness.Runner.n_servers = 2;
      n_clients = 4;
      offered_load = 400.0;
      duration = 0.5;
      warmup = 0.1;
      drain = 0.3;
    }
  in
  let _ =
    Harness.Runner.run ~metrics:mx Ncc.protocol
      (Workload.Google_f1.make ~n_keys:500 ())
      cfg
  in
  let gauge g = List.assoc_opt (g, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx) in
  (match gauge "gc.minor_words" with
   | Some v -> Alcotest.(check bool) "minor words counted" true (v > 0.0)
   | None -> Alcotest.fail "gc.minor_words gauge missing");
  (match gauge "gc.top_heap_words" with
   | Some v -> Alcotest.(check bool) "top heap counted" true (v > 0.0)
   | None -> Alcotest.fail "gc.top_heap_words gauge missing");
  Alcotest.(check bool) "major collections gauge present" true
    (match gauge "gc.major_collections" with Some _ -> true | None -> false)

let curve_cfg =
  {
    Harness.Runner.default with
    Harness.Runner.n_servers = 4;
    n_clients = 16;
    offered_load = 2_000.0;
    duration = 1.0;
    warmup = 0.2;
    drain = 0.5;
    check = Harness.Runner.Streaming;
  }

let curve_run ?metrics cfg =
  Harness.Runner.run ?metrics Ncc.protocol
    (Workload.Google_f1.make ~n_keys:1_000 ())
    cfg

(* Arrival curves modulate volume the way their time-average says they
   should: the diurnal average multiplier here is 0.6, the bursty one
   1.6, and both runs stay checker-clean. *)
let arrival_curves_shift_volume () =
  let base = curve_run curve_cfg in
  let diurnal =
    curve_run
      { curve_cfg with
        Harness.Runner.arrival =
          Harness.Runner.Diurnal { period = 1.7; trough = 0.2 } }
  in
  let bursty =
    curve_run
      { curve_cfg with
        Harness.Runner.arrival =
          Harness.Runner.Bursty
            { period = 0.2; burst_len = 0.04; burst_mult = 4.0 } }
  in
  let open Harness.Runner in
  let ok r = String.length r.check_result >= 2 && String.sub r.check_result 0 2 = "ok" in
  Alcotest.(check bool) "all three checker-clean" true
    (ok base && ok diurnal && ok bursty);
  Alcotest.(check bool) "diurnal thins arrivals" true
    (float_of_int diurnal.committed < 0.85 *. float_of_int base.committed);
  Alcotest.(check bool) "bursty amplifies arrivals" true
    (float_of_int bursty.committed > 1.2 *. float_of_int base.committed)

(* A small hot set plus a low threshold: aborts bump key scores past
   the threshold and later arrivals touching those keys are shed. *)
let hot_key_shedding () =
  let mx = Obs.Metrics.create () in
  let r =
    Harness.Runner.run ~metrics:mx Ncc.protocol
      (Workload.Google_f1.make ~n_keys:20 ())
      { curve_cfg with
        Harness.Runner.hot_key_shed =
          Some { Harness.Runner.shed_threshold = 0.5; shed_halflife = 0.05 } }
  in
  Alcotest.(check bool) "still commits" true (r.Harness.Runner.committed > 0);
  Alcotest.(check bool) "sheds hot-key arrivals" true (r.Harness.Runner.dropped > 0);
  match
    List.assoc_opt ("run.shed_hot_key", Obs.Metrics.run_scope)
      (Obs.Metrics.gauges mx)
  with
  | Some v ->
    (* no ordering against [dropped]: the gauge counts hot-key sheds
       over the whole run, [dropped] counts all shed classes but only
       inside the measurement window *)
    Alcotest.(check bool) "hot-key gauge counted sheds" true (v > 0.0)
  | None -> Alcotest.fail "run.shed_hot_key gauge missing"

(* A global in-flight ceiling far below the open-loop population must
   shed arrivals the per-client threshold alone would admit. *)
let admission_cap_sheds () =
  let base = curve_run curve_cfg in
  let capped =
    curve_run { curve_cfg with Harness.Runner.admission_cap = Some 2 }
  in
  Alcotest.(check bool) "cap sheds beyond the baseline" true
    (capped.Harness.Runner.dropped > base.Harness.Runner.dropped);
  Alcotest.(check bool) "capped run still commits" true
    (capped.Harness.Runner.committed > 0)

(* Store GC draws no RNG and schedules only its own recurring event, so
   a streaming-checked run with truncation enabled commits exactly the
   same transactions with the same verdict. *)
let store_gc_transparent () =
  let mx = Obs.Metrics.create () in
  let base = curve_run curve_cfg in
  let gcd =
    curve_run ~metrics:mx
      { curve_cfg with Harness.Runner.store_gc = Some (0.1, 8) }
  in
  let open Harness.Runner in
  Alcotest.(check int) "same commits" base.committed gcd.committed;
  Alcotest.(check int) "same attempts" base.attempts gcd.attempts;
  Alcotest.(check string) "same verdict" base.check_result gcd.check_result;
  match
    List.assoc_opt ("run.store_gc_runs", Obs.Metrics.run_scope)
      (Obs.Metrics.gauges mx)
  with
  | Some v -> Alcotest.(check bool) "gc actually ran" true (v > 0.0)
  | None -> Alcotest.fail "run.store_gc_runs gauge missing"

(* Store GC truncates version chains, but the checker learns every
   version at commit time, so truncation hides nothing from it: the
   serializable check of a GC'd run gives the un-GC'd run's verdict,
   and the strict check still verifies the history. *)
let serializable_store_gc_verifies () =
  let open Harness.Runner in
  let ok r = String.length r.check_result >= 2 && String.sub r.check_result 0 2 = "ok" in
  let ser = { curve_cfg with check = Serializable } in
  let gcd = curve_run { ser with store_gc = Some (0.05, 2) } in
  Alcotest.(check bool) "serializable + store_gc verifies ok" true (ok gcd);
  Alcotest.(check string) "same verdict as without store gc"
    (curve_run ser).check_result gcd.check_result;
  Alcotest.(check bool) "streaming + store_gc verifies ok" true
    (ok (curve_run { curve_cfg with store_gc = Some (0.05, 2) }))

let suite =
  [
    Alcotest.test_case "engine sched identity (dynamic)" `Quick
      engine_sched_identity;
    Alcotest.test_case "wheel churn footprint bounded" `Quick
      wheel_churn_footprint;
    Alcotest.test_case "net dispatch zero-alloc" `Quick net_dispatch_zero_alloc;
    Alcotest.test_case "runner gc gauges" `Quick runner_gc_gauges;
    Alcotest.test_case "arrival curves shift volume" `Quick
      arrival_curves_shift_volume;
    Alcotest.test_case "hot-key shedding" `Quick hot_key_shedding;
    Alcotest.test_case "admission cap sheds" `Quick admission_cap_sheds;
    Alcotest.test_case "store gc transparent" `Quick store_gc_transparent;
    Alcotest.test_case "serializable + store_gc verifies ok" `Quick
      serializable_store_gc_verifies;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ wheel_heap_same_drain; wheel_heap_interleaved ]
