(* Simulation core: heap ordering, engine semantics, RNG distributions
   and per-node clocks. *)

let heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:300
    QCheck.(list (pair (float_range 0.0 100.0) small_nat))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h p v) entries;
      let rec drain last acc =
        if Sim.Heap.is_empty h then List.rev acc
        else begin
          let p = Sim.Heap.top_prio h in
          let v = Sim.Heap.pop_min h in
          if p < last then raise Exit;
          drain p ((p, v) :: acc)
        end
      in
      match drain neg_infinity [] with
      | popped -> List.length popped = List.length entries
      | exception Exit -> false)

(* Strictly stronger than the two tests above: the pop sequence is
   exactly the stable sort of the push sequence by priority, i.e. ties
   break by push order everywhere, not just in one hand-built case.
   Integer priorities on a small range force plenty of ties. *)
let heap_stable_sort =
  QCheck.Test.make ~name:"heap pop order = stable sort by (prio, push seq)"
    ~count:300
    QCheck.(list (pair (0 -- 10) small_nat))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h (float_of_int p) v) entries;
      let rec drain acc =
        if Sim.Heap.is_empty h then List.rev acc
        else begin
          let p = Sim.Heap.top_prio h in
          let v = Sim.Heap.pop_min h in
          drain ((p, v) :: acc)
        end
      in
      let expected =
        List.map
          (fun (p, v) -> (float_of_int p, v))
          (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries)
      in
      List.equal
        (fun (a, x) (b, y) -> Float.equal a b && Int.equal x y)
        expected (drain []))

let heap_fifo_on_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h 1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = List.init 5 (fun _ -> Sim.Heap.pop_min h) in
  Alcotest.(check (list int)) "insertion order preserved" [ 1; 2; 3; 4; 5 ] order

let engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:0.1 (fun () ->
      log := 1 :: !log;
      (* events scheduled from events run in order too *)
      Sim.Engine.schedule e ~delay:0.1 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "final time" 0.3 (Sim.Engine.now e)

let engine_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Sim.Engine.schedule e ~delay:3.0 (fun () -> incr fired);
  Sim.Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Sim.Engine.now e)

let engine_stop () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:0.1 (fun () ->
      incr fired;
      Sim.Engine.stop e);
  Sim.Engine.schedule e ~delay:0.2 (fun () -> incr fired);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

(* NaN compares false against everything, so a [delay < 0.0] guard
   lets it through and the event would run with the clock at NaN. Both
   entry points refuse it, and a refused call leaves the queue as it
   was. *)
let engine_rejects_nan () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "schedule ~delay:nan refused" true
    (refused (fun () -> Sim.Engine.schedule e ~delay:Float.nan (fun () -> incr fired)));
  Alcotest.(check bool) "schedule_at ~time:nan refused" true
    (refused (fun () -> Sim.Engine.schedule_at e ~time:Float.nan (fun () -> incr fired)));
  Alcotest.(check bool) "negative delay refused" true
    (refused (fun () -> Sim.Engine.schedule e ~delay:(-1.0) (fun () -> incr fired)));
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending e);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Sim.Engine.run e;
  Alcotest.(check int) "only the valid event ran" 1 !fired;
  Alcotest.(check (float 0.0)) "clock is finite" 1.0 (Sim.Engine.now e)

let rng_deterministic () =
  let draw seed =
    let r = Sim.Rng.create seed in
    List.init 20 (fun _ -> Sim.Rng.int r 1000)
  in
  Alcotest.(check (list int)) "same seed same stream" (draw 7) (draw 7);
  Alcotest.(check bool) "different seeds differ" true (draw 7 <> draw 8)

let rng_split_independent () =
  (* drawing from a child must not perturb the parent stream *)
  let r1 = Sim.Rng.create 42 in
  let _c1 = Sim.Rng.split r1 in
  let a = List.init 10 (fun _ -> Sim.Rng.int r1 1000) in
  let r2 = Sim.Rng.create 42 in
  let c2 = Sim.Rng.split r2 in
  ignore (List.init 50 (fun _ -> Sim.Rng.int c2 1000));
  let b = List.init 10 (fun _ -> Sim.Rng.int r2 1000) in
  Alcotest.(check (list int)) "parent unaffected by child draws" a b

let exponential_mean =
  QCheck.Test.make ~name:"exponential has roughly the right mean" ~count:5
    QCheck.(1 -- 5)
    (fun scale ->
      let mean = float_of_int scale in
      let r = Sim.Rng.create (scale * 31) in
      let n = 20_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Sim.Rng.exponential r ~mean
      done;
      let emp = !sum /. float_of_int n in
      emp > 0.9 *. mean && emp < 1.1 *. mean)

let zipf_bounds =
  QCheck.Test.make ~name:"zipf draws stay in range" ~count:20
    QCheck.(2 -- 1000)
    (fun n ->
      let z = Sim.Rng.zipf_create ~n ~theta:0.8 in
      let r = Sim.Rng.create n in
      List.for_all
        (fun _ ->
          let k = Sim.Rng.zipf_draw r z in
          k >= 0 && k < n)
        (List.init 500 Fun.id))

let zipf_skew () =
  (* with theta = 0.8 the most popular key dominates a uniform share *)
  let n = 10_000 in
  let z = Sim.Rng.zipf_create ~n ~theta:0.8 in
  let r = Sim.Rng.create 5 in
  let hits = Hashtbl.create 64 in
  for _ = 1 to 50_000 do
    let k = Sim.Rng.zipf_draw r z in
    Hashtbl.replace hits k (1 + Option.value ~default:0 (Hashtbl.find_opt hits k))
  done;
  let top = Kernel.Detmap.fold_sorted (fun _ c acc -> max c acc) hits 0 in
  Alcotest.(check bool)
    "hot key well above uniform share" true
    (float_of_int top > 20.0 *. (50_000.0 /. float_of_int n))

let clock_skew_and_drift () =
  let c = Sim.Clock.make ~offset:0.5 ~drift:0.01 in
  Alcotest.(check (float 1e-9)) "at 0" 0.5 (Sim.Clock.read c ~now:0.0);
  Alcotest.(check (float 1e-9)) "at 100" (0.5 +. 100.0 +. 1.0) (Sim.Clock.read c ~now:100.0);
  Alcotest.(check int) "ns units" 500_000_000 (Sim.Clock.read_ns c ~now:0.0)

let suite =
  [
    Alcotest.test_case "heap fifo on ties" `Quick heap_fifo_on_ties;
    Alcotest.test_case "engine time order" `Quick engine_runs_in_time_order;
    Alcotest.test_case "engine horizon" `Quick engine_horizon;
    Alcotest.test_case "engine stop" `Quick engine_stop;
    Alcotest.test_case "engine rejects NaN times" `Quick engine_rejects_nan;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick rng_split_independent;
    Alcotest.test_case "zipf skew" `Quick zipf_skew;
    Alcotest.test_case "clock skew and drift" `Quick clock_skew_and_drift;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ heap_pops_sorted; heap_stable_sort; exponential_mean; zipf_bounds ]

let trace_ring () =
  Sim.Trace.enable ~capacity:4 ();
  Alcotest.(check bool) "active" true (Sim.Trace.active ());
  for i = 1 to 10 do
    Sim.Trace.ev ~time:(float_of_int i) Send ~src:i ~dst:0 ~x:1e-4
  done;
  Alcotest.(check int) "all counted" 10 (Sim.Trace.emitted ());
  let evs = Sim.Trace.events () in
  Alcotest.(check (list int)) "ring keeps the last 4, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Sim.Trace.ev_src) evs);
  Alcotest.(check string) "rendered on demand" "7 -> 0 (arrives +100us)"
    (Sim.Trace.message (List.hd evs));
  Sim.Trace.disable ();
  Sim.Trace.ev ~time:99.0 Crash ~src:0 ~dst:0 ~x:0.0;
  Alcotest.(check int) "disabled tracer drops" 10 (Sim.Trace.emitted ())

let render_ring () = Format.asprintf "%t" (fun ppf -> Sim.Trace.dump ppf)

(* The 2-server testbed run behind [ncc_sim run --trace N]: the rendered
   ring is pinned byte for byte, since typed events must render exactly
   the text users read. *)
let trace_capture_from_net () =
  Sim.Trace.enable ~capacity:4096 ();
  let seen = ref 0 in
  let bed =
    Harness.Testbed.make ~n_servers:2 ~n_clients:1 Ncc.protocol
      ~on_outcome:(fun ~client:_ _ -> incr seen)
  in
  let c = List.hd bed.Harness.Testbed.clients in
  bed.Harness.Testbed.submit ~client:c
    (Kernel.Txn.make ~client:c [ [ Kernel.Types.Write (1, 5) ] ]);
  bed.Harness.Testbed.run_until_quiet ();
  Sim.Trace.disable ();
  Golden.check ~name:"trace_ring_testbed.txt" (render_ring ())

(* Every fault line the runtime can render, from one seeded schedule:
   node 1 crashes and restarts (its own sends are suppressed and
   messages to it are lost meanwhile), the 0-2 link is partitioned for
   a window, and drop/duplicate/delay draws hit the rest. The ring and
   the span capture read the same stream at once, and both are pinned:
   this is the only span golden with [lost] instants and the second b/e
   pair of a duplicated copy. *)
let trace_ring_faults () =
  let engine = Sim.Engine.create () in
  let topo = Cluster.Topology.make ~n_servers:2 ~n_clients:1 () in
  let faults =
    {
      Cluster.Faults.drop = 0.15;
      duplicate = 0.2;
      delay_prob = 0.3;
      delay_extra = 400e-6;
      partitions = [ { pt_a = 0; pt_b = 2; pt_from = 1.5e-3; pt_until = 2.5e-3 } ];
      crashes = [ { cr_node = 1; cr_at = 1e-3; cr_for = 1.2e-3 } ];
    }
  in
  let net =
    Cluster.Net.create ~faults engine (Sim.Rng.create 3) topo
      ~latency:(Cluster.Latency.uniform ~one_way:100e-6 ~jitter_mean:20e-6)
      ~clock_of:(fun _ -> Sim.Clock.perfect)
  in
  for id = 0 to 2 do
    Cluster.Net.set_handler net id ~cost:(fun _ -> 5e-6) ~handler:(fun ~src:_ _ -> ())
  done;
  Sim.Trace.enable ~capacity:4096 ();
  Sim.Trace.start_capture ();
  for k = 0 to 15 do
    Sim.Engine.schedule engine ~delay:(float_of_int k *. 250e-6) (fun () ->
        Cluster.Net.send net ~src:2 ~dst:(k land 1) ();
        Cluster.Net.send net ~src:1 ~dst:0 ())
  done;
  Sim.Engine.run engine;
  Sim.Trace.disable ();
  let spans = Sim.Trace.stop_capture () in
  Golden.check ~name:"trace_ring_faults.txt" (render_ring ());
  (match Obs.Export.validate spans with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "fault-schedule spans invalid: %s" e);
  Golden.check ~name:"trace_spans_faults.json" (Obs.Export.chrome_trace_string spans)

(* A deterministic event stream of [n] records (several digest chunks
   once n exceeds ~140). [edit] rewrites event [at]; [read_at] reads the
   digest just before event [read_at] is emitted; [code_at] gives event
   [at] that phase code in place of 0. *)
let stream_digest ?(at = -1) ?(edit = Fun.id) ?(read_at = -1) ?(code_at = 0) n =
  let kinds =
    Sim.Trace.
      [| Send; Handle; Suppressed; Partitioned; Dropped; Duplicated; Lost_down;
         Crash; Restart |]
  in
  Sim.Trace.reset_digest ();
  Sim.Trace.enable_digest ();
  for i = 0 to n - 1 do
    if i = read_at then ignore (Sim.Trace.digest ());
    let e =
      ( float_of_int i *. 1e-4,
        kinds.(i mod Array.length kinds),
        i mod 7,
        i mod 5,
        float_of_int i *. 1e-7 )
    in
    let time, kind, src, dst, x = if i = at then edit e else e in
    let code = if i = at then code_at else 0 in
    Sim.Trace.emit ~time kind ~src ~dst ~x ~start:0.0 ~dur:0.0 ~id:0 ~code
  done;
  let d = Sim.Trace.digest () in
  Sim.Trace.disable_digest ();
  d

(* Regression: the tracer is a global singleton, and [enable_digest]
   used to clear the rolling digest as a side effect — a second enable
   mid-run silently wiped the history accumulated so far and broke the
   replay oracle. Enabling must be idempotent; only [reset_digest]
   starts a fresh stream. Reading the digest must not disturb the
   stream either: a read that flushed the pending chunk would shift
   every later chunk boundary and change the final digest. *)
let trace_digest_mid_run_enable () =
  let emit_one () = Sim.Trace.ev ~time:1.0 Send ~src:1 ~dst:2 ~x:1e-4 in
  let emit_two () = Sim.Trace.ev ~time:2.0 Handle ~src:1 ~dst:2 ~x:0.0 in
  Sim.Trace.reset_digest ();
  Sim.Trace.enable_digest ();
  emit_one ();
  emit_two ();
  let full = Sim.Trace.digest () in
  Sim.Trace.disable_digest ();
  Sim.Trace.reset_digest ();
  Sim.Trace.enable_digest ();
  emit_one ();
  Sim.Trace.enable_digest ();  (* mid-run: must keep accumulated history *)
  emit_two ();
  let resumed = Sim.Trace.digest () in
  Sim.Trace.disable_digest ();
  Alcotest.(check string) "mid-run enable keeps the digest" full resumed;
  let before_reset = Sim.Trace.digest () in
  Sim.Trace.reset_digest ();
  Alcotest.(check bool) "reset starts a fresh stream" true
    (Sim.Trace.digest () <> before_reset);
  let unread = stream_digest 1000 in
  Alcotest.(check string) "mid-chunk read leaves the digest alone" unread
    (stream_digest ~read_at:500 1000);
  Alcotest.(check string) "read at a chunk boundary too" unread
    (stream_digest ~read_at:140 1000)

(* Every field of a record reaches the digest: changing exactly one
   field of one event deep in a multi-chunk stream changes it. *)
let trace_digest_field_sensitivity () =
  let n = 1000 and at = 400 in
  let base = stream_digest n in
  Alcotest.(check string) "re-run across chunk boundaries" base (stream_digest n);
  List.iter
    (fun (field, edit) ->
      Alcotest.(check bool) field true (stream_digest ~at ~edit n <> base))
    [
      ("kind", fun (t, _, s, d, x) -> (t, Sim.Trace.Restart, s, d, x));
      ("time (one ulp)", fun (t, k, s, d, x) -> (Float.succ t, k, s, d, x));
      ("src", fun (t, k, s, d, x) -> (t, k, s + 1, d, x));
      ("dst", fun (t, k, s, d, x) -> (t, k, s, d + 1, x));
      ("x (one ulp)", fun (t, k, s, d, x) -> (t, k, s, d, Float.succ x));
    ];
  (* two streams that differ only in one event's phase code: a message
     kind swapped for another of equal cost and endpoints *)
  Alcotest.(check bool) "phase code" true (stream_digest ~at ~code_at:3 n <> base)

(* With digest and ring both on, an event costs only its two boxed
   float arguments (2 words each under the non-flambda calling
   convention), plus a 4-word digest per 140-record chunk flush. Any
   further per-event allocation, even one word, fails the bound. *)
let trace_ev_allocation () =
  let n = 100_000 in
  Sim.Trace.enable ~capacity:1024 ();
  Sim.Trace.reset_digest ();
  Sim.Trace.enable_digest ();
  let before = Gc.minor_words () in
  for i = 1 to n do
    Sim.Trace.ev ~time:(float_of_int i) Send ~src:i ~dst:(i land 63)
      ~x:(float_of_int i *. 1e-6)
  done;
  let words = Gc.minor_words () -. before in
  Sim.Trace.disable_digest ();
  Sim.Trace.disable ();
  let per_event = words /. float_of_int n in
  if per_event > 4.05 then
    Alcotest.failf "ev allocates %.3f minor words per event (> 4.05)" per_event

let suite =
  suite
  @ [
      Alcotest.test_case "trace ring buffer" `Quick trace_ring;
      Alcotest.test_case "trace captures net events" `Quick trace_capture_from_net;
      Alcotest.test_case "trace ring renders fault events" `Quick trace_ring_faults;
      Alcotest.test_case "trace digest survives mid-run enable" `Quick
        trace_digest_mid_run_enable;
      Alcotest.test_case "trace digest sees every field" `Quick
        trace_digest_field_sensitivity;
      Alcotest.test_case "trace ev allocation" `Quick trace_ev_allocation;
    ]
