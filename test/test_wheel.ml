(* The engine's timing-wheel event queue and the cluster-scale runner
   features that ride on it. The load-bearing property throughout: the
   engine and a plain priority queue are observationally identical —
   same delivery order, byte-identical runs — so the wheel inside the
   engine changes cost only. *)

(* Priorities that stress every wheel path at once: a dense in-window
   cluster (slot chains, sub-resolution ties), exact-tick bursts (FIFO
   among equal priorities) and beyond-window outliers (the overflow
   heap and its refill). *)
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

(* The reference order: a plain priority queue of thunks, keyed by
   (time, schedule order) so equal times run first-scheduled first,
   drained the way the engine drains its queue — advance [clock] to
   each event's time, then run it. *)
module Ref = Map.Make (struct
  type t = float * int

  let compare (t, i) (u, j) =
    if Float.equal t u then Int.compare i j else Float.compare t u
end)

let ref_queue () = (ref Ref.empty, ref 0)

let ref_push (q, n) time f =
  incr n;
  q := Ref.add (time, !n) f !q

let rec ref_run ((q, _) as r) clock =
  match Ref.min_binding_opt !q with
  | None -> ()
  | Some (((t, _) as k), f) ->
    q := Ref.remove k !q;
    clock := t;
    f ();
    ref_run r clock

let same_log a b = List.equal (fun (t, i) (u, j) -> Float.equal t u && Int.equal i j) a b

let wheel_heap_same_drain =
  QCheck.Test.make ~name:"wheel drains exactly like the heap" ~count:300 prios
    (fun ps ->
      let e = Sim.Engine.create () and log_e = ref [] in
      List.iteri
        (fun i p ->
          Sim.Engine.schedule_at e ~time:p (fun () -> log_e := (Sim.Engine.now e, i) :: !log_e))
        ps;
      Sim.Engine.run e;
      let h = ref_queue () and clock = ref 0.0 and log_h = ref [] in
      List.iteri (fun i p -> ref_push h p (fun () -> log_h := (!clock, i) :: !log_h)) ps;
      ref_run h clock;
      same_log !log_e !log_h)

(* Interleaved schedule/pop churn under the engine's monotonicity
   contract (never schedule below the current time): four events at
   time 0 start it, each delivered event runs zero to two rounds, and
   each round schedules a burst of one to four events, so base advances
   through the schedule while events keep arriving. Most draws land near the current time (in the
   window or just past it); some go far past the window, and some past
   the integer-tick clamp (4e12 s), where the overflow heap delivers
   directly — a past-clamp event scheduled after another was delivered
   must still come out in time order. The draws happen inside the
   events, so any ordering divergence from the reference compounds. *)
let wheel_heap_interleaved =
  QCheck.Test.make ~name:"wheel = heap under interleaved schedule/pop"
    ~count:200
    QCheck.(pair (int_range 1 9999) (int_range 1 200))
    (fun (seed, rounds) ->
      let drive ~schedule_at ~now =
        let rng = Sim.Rng.create seed in
        let log = ref [] and next_id = ref 0 and left = ref rounds in
        let rec fire id () =
          log := (now (), id) :: !log;
          for _ = 1 to Sim.Rng.int rng 3 do
            if !left > 0 then begin
              decr left;
              for _ = 0 to Sim.Rng.int rng 4 do
                let floor = now () in
                let p =
                  match Sim.Rng.int rng 20 with
                  | 0 -> floor +. 5000.0 +. Sim.Rng.float rng 1.0
                  | 1 -> Float.max floor 4e12 +. Sim.Rng.float rng 4e12
                  | _ -> floor +. Sim.Rng.float rng 0.005
                in
                incr next_id;
                schedule_at p (fire !next_id)
              done
            end
          done
        in
        for id = 1 to 4 do
          next_id := id;
          schedule_at 0.0 (fire id)
        done;
        log
      in
      let e = Sim.Engine.create () in
      let log_e =
        drive
          ~schedule_at:(fun time f -> Sim.Engine.schedule_at e ~time f)
          ~now:(fun () -> Sim.Engine.now e)
      in
      Sim.Engine.run e;
      let h = ref_queue () and clock = ref 0.0 in
      let log_h = drive ~schedule_at:(ref_push h) ~now:(fun () -> !clock) in
      ref_run h clock;
      same_log !log_e !log_h)

(* The engine-level restatement, with dynamic scheduling: a schedule
   with thousands of events pending — long-delay events piling up,
   batches sharing one absolute time, zero-delay same-instant bursts,
   far-future stragglers — must be delivered exactly as the reference
   queue delivers it. RNG draws happen inside handlers, so
   any ordering divergence compounds and cannot cancel out. *)
let engine_sched_identity () =
  let drive ~schedule ~schedule_at ~now ~run =
    let rng = Sim.Rng.create 7 in
    let log = ref [] in
    let note id = log := (now (), id) :: !log in
    let rec tick n =
      note n;
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
    List.rev !log
  in
  let e = Sim.Engine.create () in
  let log_e =
    drive
      ~schedule:(fun delay f -> Sim.Engine.schedule e ~delay f)
      ~schedule_at:(fun time f -> Sim.Engine.schedule_at e ~time f)
      ~now:(fun () -> Sim.Engine.now e)
      ~run:(fun () -> Sim.Engine.run e)
  in
  let h = ref_queue () and clock = ref 0.0 in
  let log_h =
    drive
      ~schedule:(fun delay f -> ref_push h (!clock +. delay) f)
      ~schedule_at:(ref_push h)
      ~now:(fun () -> !clock)
      ~run:(fun () -> ref_run h clock)
  in
  Alcotest.(check int) "same event count" (List.length log_h) (List.length log_e);
  Alcotest.(check int) "engine counts every event" (List.length log_e)
    (Sim.Engine.executed_events e);
  Alcotest.(check bool) "same (time, id) delivery log" true (same_log log_h log_e)

(* Steady-state churn holds no garbage: after the capacity high-water
   mark is reached, a million further deliveries, each rescheduling
   itself, leave the queue's retained footprint where it was. Catches
   event leaks (a node never returned to the free list would keep the
   arena growing). *)
let wheel_churn_footprint () =
  let n = 4096 in
  let span_ticks = n / 4 in
  let span = float_of_int span_ticks *. 1e-6 in
  let e = Sim.Engine.create () in
  let rec tick () = Sim.Engine.schedule e ~delay:span tick in
  for i = 0 to n - 1 do
    Sim.Engine.schedule_at e ~time:(float_of_int (i * 7919 mod span_ticks) *. 1e-6) tick
  done;
  (* [k] deliveries: each span of time delivers all [n] events once *)
  let churn k = Sim.Engine.run ~until:(Sim.Engine.now e +. (float_of_int (k / n) *. span)) e in
  (* warm up: base wraps the slot ring many times over in 300k churns,
     so the arena has reached its high-water capacity *)
  churn 300_000;
  let f1 = Sim.Engine.footprint_words e in
  let before = Sim.Engine.executed_events e in
  churn 1_000_000;
  let f2 = Sim.Engine.footprint_words e in
  Alcotest.(check bool) "a million deliveries" true
    (Sim.Engine.executed_events e - before >= 1_000_000 - n);
  Alcotest.(check int) "pending unchanged" n (Sim.Engine.pending e);
  (* flat: freed nodes are reused, so a million further churns leave
     the arena's capacity where it was *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint flat across 1M churn (%d -> %d)" f1 f2)
    true (f2 - f1 <= 2048);
  (* absolute: bounded by the pending population and the wheel's own
     geometry, not by the 1.1M events that passed through *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint near the pending population (%d)" f2)
    true (f2 < 64 * n)

(* The event queue allocates nothing per event: the engine keeps every
   time in its arena's float array and its clock cell, so no float is
   boxed on the way in or out. The engine at 10k pending over a 10 ms span sends every reschedule past the
   wheel's 4,096-slot window, through its overflow heap, whose entries
   are node ids, so that path is as free as the window. A local sift or
   slot scan capturing the queue would add a closure block per push,
   pop or scan. Each measured window is one [Engine.run] call, whose
   own option and loop closure are a few words over thousands of
   events. *)
let queue_cycle_words () =
  let engine_words n ~span =
    let e = Sim.Engine.create () in
    let rec tick () = Sim.Engine.schedule e ~delay:span tick in
    for i = 0 to n - 1 do
      Sim.Engine.schedule_at e
        ~time:(span *. float_of_int (i * 7919 mod n) /. float_of_int n)
        tick
    done;
    let window spans =
      let until = Sim.Engine.now e +. (float_of_int spans *. span) in
      let w0 = Gc.minor_words () in
      let ran = Sim.Engine.executed_events e in
      Sim.Engine.run ~until e;
      (Gc.minor_words () -. w0) /. float_of_int (Sim.Engine.executed_events e - ran)
    in
    ignore (window 10);
    (window 50, Sim.Engine.pending e)
  in
  List.iter
    (fun (n, span, bound) ->
      let w, pending = engine_words n ~span in
      Alcotest.(check int) "population steady" n pending;
      Alcotest.(check bool)
        (Printf.sprintf "engine at %d pending: %.3f words/event" n w)
        true (w <= bound))
    [ (150, 1e-3, 0.01); (10_000, 10e-3, 0.01) ]

(* The arena claim behind `send_clean`: once the freelist has grown to
   the steady-state in-flight population, a message allocates no
   closure, flight record or option, and the times it records (enqueue,
   service start, CPU cost) stay in flat float arrays, as does the
   latency sample, which [Latency.sample_into] lands in a cell that
   [Engine.schedule_cell] reads. What remains is the one float that
   must cross a module boundary, which dune's dev profile ([-opaque],
   no cross-module inlining) boxes: the stdlib's uniform draw under
   the jitter, 2 words (the bound's 0.01 covers the boxed counter
   reads themselves). The assertion is a small
   *flat* constant, independent of how many messages have flowed.
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
    true (per_msg <= 2.01);
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
    Alcotest.test_case "event queue cycles allocate no closure" `Quick
      queue_cycle_words;
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
