(* Experiment runner: builds a simulated cluster, plugs in a protocol's
   server and client actors, drives open-loop Poisson load with a
   retry-until-committed policy (as the paper's clients do), and
   collects throughput / latency / abort statistics plus an optional
   serializability-checker verdict; the checker is fed inline, on the
   run's own domain, as versions and transactions commit. *)

open Kernel

type latency_spec =
  | Uniform of { one_way : float; jitter : float }
  | Asymmetric of { min_one_way : float; max_one_way : float; jitter : float }
  | Geo_replicas of { local : float; wide : float; jitter : float }
      (* replica nodes live in a remote datacenter: any path touching a
         replica pays the wide-area delay *)

(* Both checked levels feed {!Checker.Stream} inline as commits
   happen: [Streaming] checks strict serializability in bounded memory,
   [Serializable] plain serializability over the retained history
   (TAPIR-CC and MVTO promise no more). *)
type check_level = No_check | Streaming | Serializable

(* The one --check spelling table, shared by ncc_sim and bench. *)
let check_levels = [ ("on", Streaming); ("ser", Serializable); ("off", No_check) ]

(* Arrival-rate shape over simulated time. [Constant] is the
   historical homogeneous Poisson process and draws exactly the
   legacy RNG sequence; the other curves modulate the rate by a
   deterministic multiplier m(t) via Lewis-Shedler thinning (draw
   candidate gaps at the peak rate, accept with probability
   m(t)/m_peak), so they are seed-reproducible like everything else. *)
type arrival_curve =
  | Constant
  | Diurnal of { period : float; trough : float }
      (* cosine day/night swing: multiplier 1.0 at peak, [trough] at
         the bottom, one full cycle per [period] seconds *)
  | Bursty of { period : float; burst_len : float; burst_mult : float }
      (* every [period] seconds, [burst_len] seconds at [burst_mult]x
         the base rate; 1.0x otherwise *)

(* Decaying per-key conflict scoring for hot-key shedding: an abort
   bumps each of the transaction's keys; an arrival whose hottest key
   has decayed score above [shed_threshold] is shed at admission
   (counted in [result.dropped] and the run.shed_hot_key gauge). *)
type hot_key_spec = {
  shed_threshold : float;
  shed_halflife : float;  (* seconds for a key's score to halve *)
}

type config = {
  seed : int;
  n_servers : int;
  n_clients : int;
  offered_load : float;  (* transactions/second across the whole system *)
  duration : float;      (* measurement window, seconds *)
  warmup : float;
  drain : float;
  max_inflight : int;    (* open-loop back-off threshold per client *)
  max_retries : int;
  retry_backoff : float; (* base back-off before resubmitting an abort *)
  cost : Cost.t;
  latency : latency_spec;
  max_clock_offset : float;
  max_clock_drift : float;
  check : check_level;
  check_window : int;    (* Streaming: commits per epoch (GC window) *)
  series_width : float option;  (* commit-rate time series bucket width *)
  replicas_per_server : int;    (* replica nodes per server (replicated protocols) *)
  request_timeout : float option;  (* per-attempt client timeout (None = never) *)
  faults : Cluster.Faults.spec;    (* injected network/node faults *)
  arrival : arrival_curve;         (* arrival-rate shape (default Constant) *)
  admission_cap : int option;
      (* system-wide in-flight transaction ceiling; arrivals beyond it
         are shed like the per-client back-off threshold (default None) *)
  hot_key_shed : hot_key_spec option;  (* hot-key admission shedding *)
  store_gc : (float * int) option;
      (* Some (period, keep): truncate committed version chains on
         every server store to [keep] versions every [period] simulated
         seconds, for bounded-memory multi-million-txn runs. The checker
         learns versions at commit time, so truncation cannot hide them
         from it (default None) *)
}

let default =
  {
    seed = 42;
    n_servers = 8;
    n_clients = 24;
    offered_load = 5_000.0;
    duration = 4.0;
    warmup = 1.0;
    drain = 1.0;
    max_inflight = 16;
    max_retries = 50;
    retry_backoff = 0.5e-3;
    cost = Cost.default;
    latency = Asymmetric { min_one_way = 120e-6; max_one_way = 380e-6; jitter = 25e-6 };
    max_clock_offset = 2e-3;
    max_clock_drift = 2e-5;
    check = No_check;
    check_window = 1024;
    series_width = None;
    replicas_per_server = 0;
    request_timeout = None;
    faults = Cluster.Faults.none;
    arrival = Constant;
    admission_cap = None;
    hot_key_shed = None;
    store_gc = None;
  }

type result = {
  protocol : string;
  workload : string;
  offered : float;
  committed : int;
  gave_up : int;
  attempts : int;
  aborts : (string * int) list;  (* per abort reason, all attempts *)
  dropped : int;                 (* arrivals suppressed by back-off *)
  throughput : float;
  mean_latency : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  messages : int;
  msgs_per_commit : float;
  max_utilization : float;
  counters : (string * float) list;
  series : (float * float) list;
  check_result : string;
}

(* The one reading of [check_result]: only a check that ran and failed
   is a violation; "skipped" is not. *)
let violated r = String.starts_with ~prefix:"VIOLATION" r.check_result

type pending = {
  p_txn : Txn.t;
  p_first_start : float;
  mutable p_attempt_start : float;
  mutable p_attempts : int;
  mutable p_live : bool;  (* false once committed or given up *)
}

(* The streaming checker's watermark source: a lazy-deletion ring of
   (attempt_start, pending) in push order. Attempt starts are recorded
   at simulated [now], so pushes arrive in nondecreasing time order
   and the first *valid* entry (still live, start unchanged by a
   resubmit) is the minimum live attempt start — which is exactly what
   the old per-commit fold over every client's inflight table computed
   in O(n_clients). At 10k+ clients that fold dominated the commit
   path; the ring answers in amortised O(1). *)
type wm_ring = {
  mutable r_starts : float array;  (* flat storage: unboxed floats *)
  mutable r_ps : pending array;
  mutable r_head : int;
  mutable r_len : int;
  mutable r_dummy : pending option;  (* slot-clearing filler *)
}

let ring_create () =
  { r_starts = [||]; r_ps = [||]; r_head = 0; r_len = 0; r_dummy = None }

let ring_grow r p =
  let cap = Array.length r.r_ps in
  let ncap = if cap = 0 then 1024 else cap * 2 in
  let starts = Array.make ncap 0.0 in
  let ps = Array.make ncap p in
  for k = 0 to r.r_len - 1 do
    let i = (r.r_head + k) land (cap - 1) in
    starts.(k) <- r.r_starts.(i);
    ps.(k) <- r.r_ps.(i)
  done;
  r.r_starts <- starts;
  r.r_ps <- ps;
  r.r_head <- 0

let ring_push r start p =
  (match r.r_dummy with None -> r.r_dummy <- Some p | Some _ -> ());
  if r.r_len = Array.length r.r_ps then ring_grow r p;
  let i = (r.r_head + r.r_len) land (Array.length r.r_ps - 1) in
  r.r_starts.(i) <- start;
  r.r_ps.(i) <- p;
  r.r_len <- r.r_len + 1

(* Minimum live attempt start, or [ifempty] when no attempt is in
   flight. Stale heads (resolved transactions, resubmitted attempts)
   are dropped as they surface. *)
let rec ring_min r ~ifempty =
  if r.r_len = 0 then ifempty
  else begin
    let i = r.r_head in
    let p = r.r_ps.(i) in
    let s = r.r_starts.(i) in
    (* ncc-lint: allow R8 — exact equality detects a resubmit that re-stamped the same float; a tolerance would retire live attempts *)
    if p.p_live && p.p_attempt_start = s then s
    else begin
      (match r.r_dummy with Some d -> r.r_ps.(i) <- d | None -> ());
      r.r_head <- (i + 1) land (Array.length r.r_ps - 1);
      r.r_len <- r.r_len - 1;
      ring_min r ~ifempty
    end
  end

let latency_model rng topo = function
  | Uniform { one_way; jitter } -> Cluster.Latency.uniform ~one_way ~jitter_mean:jitter
  | Asymmetric { min_one_way; max_one_way; jitter } ->
    Cluster.Latency.asymmetric rng topo ~min_one_way ~max_one_way ~jitter_mean:jitter
  | Geo_replicas { local; wide; jitter } ->
    Cluster.Latency.classed ~local ~wide ~jitter_mean:jitter
      ~remote:(fun a b ->
        Cluster.Topology.is_replica topo a || Cluster.Topology.is_replica topo b)

(* Each rejected config would otherwise fail mid-run with an unrelated
   exception (Topology.make, a negative Engine.schedule delay, a
   Series bucket index of infinity) or loop forever. Zero durations are
   valid: a set-up-only run. *)
let validate cfg =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let span x = Float.is_finite x && x >= 0.0 in
  if cfg.n_servers < 1 then fail "n_servers must be at least 1 (got %d)" cfg.n_servers
  else if cfg.n_clients < 1 then fail "n_clients must be at least 1 (got %d)" cfg.n_clients
  else if cfg.replicas_per_server < 0 then
    fail "replicas_per_server must be >= 0 (got %d)" cfg.replicas_per_server
  else if not (span cfg.offered_load) then
    fail "offered_load must be finite and >= 0 (got %g)" cfg.offered_load
  else if not (span cfg.duration) then
    fail "duration must be finite and >= 0 (got %g)" cfg.duration
  else if not (span cfg.warmup) then
    fail "warmup must be finite and >= 0 (got %g)" cfg.warmup
  else if not (span cfg.drain) then fail "drain must be finite and >= 0 (got %g)" cfg.drain
  else if not (span cfg.retry_backoff) then
    fail "retry_backoff must be finite and >= 0 (got %g)" cfg.retry_backoff
  else if cfg.check_window < 1 then
    fail "check_window must be at least 1 (got %d)" cfg.check_window
  else
    match (cfg.request_timeout, cfg.series_width, cfg.store_gc) with
    | Some d, _, _ when not (Float.is_finite d && d > 0.0) ->
      fail "request_timeout must be finite and > 0 (got %g)" d
    | _, Some w, _ when not (w > 0.0) -> fail "series_width must be > 0 (got %g)" w
    | _, _, Some (period, _) when not (period > 0.0) ->
      fail "store_gc period must be > 0 (got %g)" period
    | _, _, Some (_, keep) when keep < 1 ->
      fail "store_gc keep must be at least 1 (got %d)" keep
    | _ -> Ok ()

let run ?(label = "") ?metrics (module P : Protocol.S) (w : Workload_sig.t) cfg =
  (match validate cfg with Ok () -> () | Error m -> invalid_arg ("Runner.run: " ^ m));
  Txn.reset_ids ();
  Mvstore.Store.reset_vids ();
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create cfg.seed in
  let topo =
    Cluster.Topology.make ~replicas_per_server:cfg.replicas_per_server
      ~n_servers:cfg.n_servers ~n_clients:cfg.n_clients ()
  in
  let clock_rng = Sim.Rng.split rng in
  let clocks =
    Array.init (Cluster.Topology.n_nodes topo) (fun _ ->
        Sim.Clock.random clock_rng ~max_offset:cfg.max_clock_offset
          ~max_drift:cfg.max_clock_drift)
  in
  let lat_rng = Sim.Rng.split rng in
  let latency = latency_model lat_rng topo cfg.latency in
  let net =
    Cluster.Net.create ~faults:cfg.faults engine (Sim.Rng.split rng) topo
      ~latency
      ~clock_of:(fun id -> clocks.(id))
  in
  (* Track names and the handler-span labeller. Tracing is passive:
     every Sim.Trace event below is stamped with the current simulated
     time and touches nothing else, so tracing cannot change a run
     (pinned by the observer-effect test). *)
  Cluster.Net.name_tracks net;
  let phase m = Obs.Phase.code (P.msg_phase m) in
  let window_start = cfg.warmup in
  let window_end = cfg.warmup +. cfg.duration in
  let horizon = window_end +. cfg.drain in
  (* --- stats --- *)
  let mx = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let hist = Obs.Metrics.hist mx "txn.latency_s" in
  let committed = ref 0 and gave_up = ref 0 and attempts = ref 0 in
  let dropped = ref 0 in
  (* Abort reasons live in their own registry: [result.counters] is
     protocol counters only (historical shape), and counter totals sum
     everything in a registry. *)
  let abort_mx = Obs.Metrics.create () in
  let series = Stats.Series.create ?width:cfg.series_width () in
  (* --- streaming checker (any checked level) ---
     Two event streams feed it inline at commit time: the store hook
     announces committed versions, the client report announces commit
     records. *)
  let n_nodes = Cluster.Topology.n_nodes topo in
  let checked = cfg.check <> No_check in
  let wm_ring = ring_create () in
  let checker_node = n_nodes in
  (* Lower bound on the start time of every commit not yet fed to the
     checker: no in-flight attempt started earlier than its recorded
     [p_attempt_start], and nothing submits before [now]. The ring
     answers in amortised O(1); the fold it replaced walked every
     client's inflight table on every commit. *)
  let watermark_now () = ring_min wm_ring ~ifempty:(Sim.Engine.now engine) in
  let stream =
    if not checked then None
    else
      Some
        (Checker.Stream.create ~strict:(cfg.check = Streaming) ~epoch:cfg.check_window
           ~watermark:watermark_now
           ~on_epoch:(fun ~live ~retired ->
             if Sim.Trace.active () then
               Sim.Trace.emit ~time:(Sim.Engine.now engine) Epoch ~src:checker_node
                 ~dst:checker_node ~x:0.0 ~start:0.0 ~dur:0.0 ~id:live ~code:retired)
           ())
  in
  (* Busy-time snapshots at the window edges: utilization is measured
     over the measurement window, not diluted by warmup and drain. The
     snapshot events are installed unconditionally and draw no
     randomness, so they cannot perturb the simulation's RNG streams. *)
  let busy_at_start = Array.make n_nodes 0.0 in
  let busy_at_end = Array.make n_nodes 0.0 in
  let snapshot into () =
    for id = 0 to n_nodes - 1 do
      into.(id) <- Cluster.Net.busy_time net id
    done
  in
  Sim.Engine.schedule engine ~delay:window_start (snapshot busy_at_start);
  Sim.Engine.schedule engine ~delay:window_end (snapshot busy_at_end);
  (* --- servers --- *)
  let servers =
    List.map
      (fun id ->
        let srv = P.make_server (Cluster.Net.ctx net id) in
        Cluster.Net.set_handler ~phase net id
          ~cost:(fun m -> P.msg_cost cfg.cost m)
          ~handler:(fun ~src m -> P.server_handle srv ~src m);
        (* the streaming checker's version feed *)
        (match stream with
         | Some st ->
           List.iter
             (fun store ->
               Mvstore.Store.set_on_commit store (fun key v ~prev ~next ->
                   Checker.Stream.observe_version st ~key ~vid:v.Mvstore.Store.vid
                     ~writer:v.Mvstore.Store.writer
                     ~prev:(Option.map (fun (p : Mvstore.Store.version) -> p.vid) prev)
                     ~next:(Option.map (fun (s : Mvstore.Store.version) -> s.vid) next)))
             (P.server_stores srv)
         | None -> ());
        (id, srv))
      (Cluster.Topology.servers topo)
  in
  (* --- replicas (replicated protocols only) --- *)
  List.iter
    (fun id ->
      let rep = P.make_replica (Cluster.Net.ctx net id) in
      Cluster.Net.set_handler ~phase net id
        ~cost:(fun m -> P.msg_cost cfg.cost m)
        ~handler:(fun ~src m -> P.replica_handle rep ~src m))
    (Cluster.Topology.replicas topo);
  (* --- periodic store GC (bounded-memory multi-million-txn runs) ---
     Truncates committed version chains on every server store. Draws no
     randomness, so it cannot perturb the RNG streams; it only changes
     which stale versions a late reader can still find. *)
  let store_gc_runs = ref 0 in
  (match cfg.store_gc with
   | None -> ()
   | Some (period, keep) ->
     let rec gc_tick () =
       List.iter
         (fun (_, srv) ->
           List.iter (fun st -> Mvstore.Store.gc ~keep st) (P.server_stores srv))
         servers;
       incr store_gc_runs;
       Sim.Engine.schedule engine ~delay:period gc_tick
     in
     Sim.Engine.schedule engine ~delay:period gc_tick);
  (* --- clients --- *)
  (* Clients live in a preallocated array indexed by
     [Topology.client_index] (flat state discipline, like the net's
     inbox rings): the old assoc list consed one pair per client and
     was walked with List folds, which at 10k+ open-loop clients
     scattered hot state across the heap. *)
  let clients : (int * P.client) option array = Array.make cfg.n_clients None in
  (* System-wide admission control: arrivals beyond [admission_cap]
     in-flight transactions are shed like the per-client threshold. *)
  let inflight_total = ref 0 in
  let shed_admission = ref 0 and shed_hot_key = ref 0 in
  let admit_capped () =
    match cfg.admission_cap with
    | Some cap -> !inflight_total >= cap
    | None -> false
  in
  (* Hot-key shedding: decaying per-key conflict scores, bumped on
     abort, consulted at admission. Scores decay lazily — each entry
     stores (score, last-bump time) and is rescaled on touch. *)
  let hot_score : (Types.key, float * float) Hashtbl.t = Hashtbl.create 512 in
  let hot_decayed now key halflife =
    match Hashtbl.find_opt hot_score key with
    | None -> 0.0
    | Some (s, t0) -> s *. (0.5 ** ((now -. t0) /. halflife))
  in
  let hot_bump now txn =
    match cfg.hot_key_shed with
    | None -> ()
    | Some { shed_halflife; _ } ->
      List.iter
        (fun k ->
          Hashtbl.replace hot_score k (hot_decayed now k shed_halflife +. 1.0, now))
        (Txn.keys txn)
  in
  let hot_blocked now txn =
    match cfg.hot_key_shed with
    | None -> false
    | Some { shed_threshold; shed_halflife } ->
      List.exists
        (fun k -> hot_decayed now k shed_halflife > shed_threshold)
        (Txn.keys txn)
  in
  (* Arrival-rate curve: multiplier m(t) plus its peak, for
     Lewis-Shedler thinning (candidates fire at the peak rate, accepted
     with probability m(t)/m_peak). [Constant] bypasses the acceptance
     draw entirely, so its RNG sequence is exactly the legacy
     homogeneous Poisson process. *)
  let curve_mult, curve_max =
    match cfg.arrival with
    | Constant -> ((fun _ -> 1.0), 1.0)
    | Diurnal { period; trough } ->
      ( (fun t ->
          let c = cos (2.0 *. Float.pi *. t /. period) in
          trough +. ((1.0 -. trough) *. (0.5 +. (0.5 *. c)))),
        Float.max 1.0 trough )
    | Bursty { period; burst_len; burst_mult } ->
      ( (fun t -> if Float.rem t period < burst_len then burst_mult else 1.0),
        Float.max 1.0 burst_mult )
  in
  let in_window t = t >= window_start && t < window_end in
  (* Txn-lifecycle spans, all on the owning client's track, keyed by
     transaction id: a "txn" span over the whole retry-until-committed
     life, nested "attempt" spans per submission, "backoff" between
     attempts, "shed" / "gave_up" instants at the open-loop threshold
     and the retry cap. *)
  let txn_ev kind node txn code =
    Sim.Trace.emit ~time:(Sim.Engine.now engine) kind ~src:node ~dst:node ~x:0.0
      ~start:0.0 ~dur:0.0 ~id:txn ~code
  in
  List.iter
    (fun id ->
      let ctx = Cluster.Net.ctx net id in
      let gen_rng = Sim.Rng.split rng in
      let retry_rng = Sim.Rng.split rng in
      let inflight = Intmap.create () in
      (* forward declaration dance: the client references [report],
         which resubmits through the client *)
      let client_ref = ref None in
      let client () = Option.get !client_ref in
      (* Request timeout: if the attempt armed when the timer was set
         is still the one in flight when it fires, cancel it through
         the protocol (which reports [Aborted Timed_out], feeding the
         normal retry path). [`Keep_waiting] means the protocol is
         re-driving a commit phase; re-arm and keep waiting. *)
      let rec arm_timeout p =
        match cfg.request_timeout with
        | None -> ()
        | Some d ->
          let marker = p.p_attempts in
          Sim.Engine.schedule engine ~delay:d (fun () ->
              match Intmap.find_opt inflight p.p_txn.Txn.id with
              | Some p' when p' == p && p.p_attempts = marker -> (
                match P.cancel (client ()) p.p_txn with
                | `Cancelled -> ()
                | `Keep_waiting -> arm_timeout p)
              | _ -> ())
      in
      let resubmit p =
        let now = Sim.Engine.now engine in
        p.p_attempt_start <- now;
        if checked then ring_push wm_ring now p;
        incr attempts;
        if Sim.Trace.active () then txn_ev Attempt_begin id p.p_txn.Txn.id 0;
        P.submit (client ()) p.p_txn;
        arm_timeout p
      in
      let report (o : Outcome.t) =
        match Intmap.find_opt inflight o.txn.Txn.id with
        | None -> () (* duplicate report; ignore *)
        | Some p ->
          let now = Sim.Engine.now engine in
          (match o.status with
           | Outcome.Committed ->
             Intmap.remove inflight o.txn.Txn.id;
             p.p_live <- false;
             decr inflight_total;
             if Sim.Trace.active () then begin
               txn_ev Attempt_end id o.txn.Txn.id (-1);
               txn_ev Txn_end id o.txn.Txn.id (p.p_attempts + 1)
             end;
             if in_window p.p_first_start then begin
               incr committed;
               Stats.Hist.add hist (now -. p.p_first_start);
               Stats.Series.add series now
             end;
             (match stream with
              | Some st ->
                (* drop resolved heads from the watermark ring now: left
                   to the next epoch's read, they would pin every
                   transaction finished since the last one *)
                ignore (watermark_now ());
                Checker.Stream.observe_commit st ~txn:o.txn.Txn.id
                  ~start:p.p_attempt_start ~finish:now
                  ~reads:(List.map (fun (k, vid, _) -> (k, vid)) o.reads)
                  ~writes:o.writes
              | None -> ())
           | Outcome.Aborted reason ->
             let reason_s = Outcome.reason_to_string reason in
             if Sim.Trace.active () then
               txn_ev Attempt_end id o.txn.Txn.id (Outcome.reason_code reason);
             hot_bump now o.txn;
             if in_window p.p_first_start then
               Obs.Metrics.add abort_mx reason_s 1.0;
             p.p_attempts <- p.p_attempts + 1;
             if p.p_attempts > cfg.max_retries then begin
               Intmap.remove inflight o.txn.Txn.id;
               p.p_live <- false;
               decr inflight_total;
               if Sim.Trace.active () then begin
                 txn_ev Gave_up id o.txn.Txn.id 0;
                 txn_ev Txn_end id o.txn.Txn.id (-1)
               end;
               if in_window p.p_first_start then incr gave_up
             end
             else begin
               let backoff =
                 cfg.retry_backoff
                 *. float_of_int (1 lsl min 6 (p.p_attempts - 1))
                 *. (0.5 +. Sim.Rng.float retry_rng 1.0)
               in
               if Sim.Trace.active () then
                 Sim.Trace.emit ~time:now Backoff ~src:id ~dst:id ~x:0.0 ~start:now
                   ~dur:backoff ~id:o.txn.Txn.id ~code:0;
               Sim.Engine.schedule engine ~delay:backoff (fun () -> resubmit p)
             end)
      in
      let cl = P.make_client ctx ~report in
      client_ref := Some cl;
      clients.(Cluster.Topology.client_index topo id) <- Some (id, cl);
      Cluster.Net.set_handler ~phase net id
        ~cost:(fun _ -> Cost.client cfg.cost)
        ~handler:(fun ~src m -> P.client_handle cl ~src m);
      (* open-loop Poisson arrivals, thinned to the arrival curve *)
      let rate = cfg.offered_load /. float_of_int cfg.n_clients in
      let gap_mean = 1.0 /. (rate *. curve_max) in
      let rec arrival () =
        let now = Sim.Engine.now engine in
        if now < window_end then begin
          let accepted =
            match cfg.arrival with
            | Constant -> true
            | _ -> Sim.Rng.float gen_rng curve_max < curve_mult now
          in
          (if not accepted then ()
           else if Intmap.length inflight >= cfg.max_inflight || admit_capped ()
           then begin
             if admit_capped () then incr shed_admission;
             if Sim.Trace.active () then txn_ev Shed id 0 0;
             if in_window now then incr dropped
           end
           else begin
             let txn = w.Workload_sig.gen gen_rng ~client:id in
             if hot_blocked now txn then begin
               incr shed_hot_key;
               if Sim.Trace.active () then txn_ev Shed id 0 1;
               if in_window now then incr dropped
             end
             else begin
               let p =
                 { p_txn = txn; p_first_start = now; p_attempt_start = now;
                   p_attempts = 0; p_live = true }
               in
               Intmap.replace inflight txn.Txn.id p;
               incr inflight_total;
               if checked then ring_push wm_ring now p;
               incr attempts;
               if Sim.Trace.active () then begin
                 txn_ev Txn_begin id txn.Txn.id 0;
                 txn_ev Attempt_begin id txn.Txn.id 0
               end;
               P.submit cl txn;
               arm_timeout p
             end
           end);
          Sim.Engine.schedule engine
            ~delay:(Sim.Rng.exponential gen_rng ~mean:gap_mean)
            arrival
        end
      in
      Sim.Engine.schedule engine ~delay:(Sim.Rng.exponential gen_rng ~mean:gap_mean)
        arrival)
    (Cluster.Topology.clients topo);
  (* --- go --- *)
  let gc0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
  Sim.Engine.run ~until:horizon engine;
  (* GC telemetry over the simulation proper (setup excluded): gauges
     only, never part of [result], so run results stay identical
     whether or not anyone reads them. Minor words are this domain's,
     from [Gc.minor_words]: [quick_stat]'s count stops at the last
     minor collection, so a short run that triggers none read 0. *)
  let gc1 = Gc.quick_stat () in
  Obs.Metrics.set_gauge mx "gc.minor_words" (Gc.minor_words () -. minor0);
  Obs.Metrics.set_gauge mx "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  Obs.Metrics.set_gauge mx "gc.top_heap_words"
    (float_of_int gc1.Gc.top_heap_words);
  (* --- collect --- *)
  let check_result =
    match stream with
    | None -> "skipped"
    | Some st ->
      let v = Checker.Stream.finalize st in
      let s = Checker.Stream.stats st in
      Obs.Metrics.set_gauge mx "checker.commits"
        (float_of_int s.Checker.Stream.commits);
      Obs.Metrics.set_gauge mx "checker.epochs"
        (float_of_int s.Checker.Stream.epochs);
      Obs.Metrics.set_gauge mx "checker.retired"
        (float_of_int s.Checker.Stream.retired);
      Obs.Metrics.set_gauge mx "checker.live_high_water"
        (float_of_int s.Checker.Stream.live_high_water);
      Obs.Metrics.set_gauge mx "checker.pending_high_water"
        (float_of_int s.Checker.Stream.pending_high_water);
      Obs.Metrics.set_gauge mx "checker.stale_residue"
        (float_of_int s.Checker.Stream.stale_residue);
      if Sim.Trace.active () then begin
        let ev kind ~dst ~x ~id ~code =
          Sim.Trace.emit ~time:(Sim.Engine.now engine) kind ~src:checker_node ~dst ~x
            ~start:0.0 ~dur:0.0 ~id ~code
        in
        ev Track ~dst:checker_node ~x:0.0 ~id:0 ~code:Sim.Trace.checker_track;
        ev Finalize ~dst:s.Checker.Stream.live_high_water
          ~x:(if Checker.Verdict.is_ok v then 0.0 else 1.0)
          ~id:s.Checker.Stream.commits ~code:s.Checker.Stream.retired
      end;
      (match v with
       | Checker.Verdict.Ok -> Printf.sprintf "ok (%d txns)" s.Checker.Stream.commits
       | Checker.Verdict.Violation a -> "VIOLATION: " ^ Checker.Verdict.anomaly_to_string a)
  in
  (* Protocol counters land in the metrics registry scoped to the node
     that produced them; [counter_totals] sums each family across nodes,
     which is exactly the historical [result.counters] shape. *)
  List.iter
    (fun (id, srv) -> Obs.Metrics.add_list mx ~node:id (P.server_counters srv))
    servers;
  for ci = 0 to cfg.n_clients - 1 do
    match clients.(ci) with
    | Some (id, cl) -> Obs.Metrics.add_list mx ~node:id (P.client_counters cl)
    | None -> ()
  done;
  if not (Cluster.Faults.is_none cfg.faults) then begin
    let fs = Cluster.Net.fault_stats net in
    Obs.Metrics.add_list mx
      [
        ("net.dropped", float_of_int fs.Cluster.Net.dropped);
        ("net.duplicated", float_of_int fs.Cluster.Net.duplicated);
        ("net.delayed", float_of_int fs.Cluster.Net.delayed);
        ("net.crashes", float_of_int fs.Cluster.Net.crashes);
      ]
  end;
  let msgs = Cluster.Net.messages_sent net in
  let aborts =
    List.map
      (fun (reason, n) -> (reason, int_of_float n))
      (Obs.Metrics.counter_totals abort_mx)
  in
  let max_utilization =
    if cfg.duration <= 0.0 then 0.0
    else
      List.fold_left
        (fun acc (s, _) ->
          Float.max acc ((busy_at_end.(s) -. busy_at_start.(s)) /. cfg.duration))
        0.0 servers
  in
  (* Run-level summary gauges: visible to the profile exporter, kept
     out of the counter families so [result.counters] is unchanged. *)
  let throughput = float_of_int !committed /. cfg.duration in
  Obs.Metrics.set_gauge mx "run.committed" (float_of_int !committed);
  Obs.Metrics.set_gauge mx "run.gave_up" (float_of_int !gave_up);
  Obs.Metrics.set_gauge mx "run.attempts" (float_of_int !attempts);
  Obs.Metrics.set_gauge mx "run.shed_arrivals" (float_of_int !dropped);
  (match cfg.admission_cap with
   | Some _ ->
     Obs.Metrics.set_gauge mx "run.shed_admission" (float_of_int !shed_admission)
   | None -> ());
  (match cfg.hot_key_shed with
   | Some _ ->
     Obs.Metrics.set_gauge mx "run.shed_hot_key" (float_of_int !shed_hot_key)
   | None -> ());
  (match cfg.store_gc with
   | Some _ ->
     Obs.Metrics.set_gauge mx "run.store_gc_runs" (float_of_int !store_gc_runs)
   | None -> ());
  Obs.Metrics.set_gauge mx "run.throughput_tps" throughput;
  Obs.Metrics.set_gauge mx "run.max_utilization" max_utilization;
  Obs.Metrics.set_gauge mx "net.messages" (float_of_int msgs);
  List.iter
    (fun (reason, n) ->
      Obs.Metrics.set_gauge mx ("aborts." ^ reason) (float_of_int n))
    aborts;
  for id = 0 to n_nodes - 1 do
    Obs.Metrics.set_gauge mx ~node:id "cpu.busy_s" (Cluster.Net.busy_time net id)
  done;
  {
    protocol = (if label = "" then P.name else label);
    workload = w.Workload_sig.name;
    offered = cfg.offered_load;
    committed = !committed;
    gave_up = !gave_up;
    attempts = !attempts;
    aborts;
    dropped = !dropped;
    throughput;
    mean_latency = Stats.Hist.mean hist;
    p50 = Stats.Hist.percentile hist 0.50;
    p90 = Stats.Hist.percentile hist 0.90;
    p99 = Stats.Hist.percentile hist 0.99;
    p999 = Stats.Hist.p999 hist;
    messages = msgs;
    msgs_per_commit =
      (if !committed = 0 then 0.0 else float_of_int msgs /. float_of_int !committed);
    max_utilization;
    counters = Obs.Metrics.counter_totals mx;
    series = Stats.Series.rates series;
    check_result;
  }
