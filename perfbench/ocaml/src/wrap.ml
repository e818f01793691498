(* The seams the benchmark wraps, all from outside the library: the
   protocol module ([Harness.Protocol.S]), the [Cluster.Net]
   capabilities handed to its actors ([ctx.send], [ctx.timer]), the
   runner's [~report] callback and the workload generator. [plain]
   only notes arrivals and first commits in simulated time, and times
   the calibration ticks; [traced] times every call through {!Probe}
   instead of the ticks. Neither draws randomness nor
   schedules an event, so a wrapped run's [Runner.result] equals the
   bare run's. *)

open Kernel

(* In-window arrivals, and the simulated latency of every in-window
   transaction from its first arrival to its first commit report. The
   runner keeps these latencies only as a histogram of 4%-wide buckets,
   whose quantiles do not move when the samples move by less than a
   bucket; the benchmark's sim-time guards need the exact ones.
   Counting the first commit report per id matches the runner's own
   samples as long as no in-window transaction gives up, which
   {!Measure.errors} requires, along with one sample per commit.

   With [calibrate] set, every [tick_every]-th report also times
   {!Calib.tick_ns}, so that the host's speed is sampled all through the
   run, interleaved with the work it is set against. *)
module Sim_lat = struct
  let engine : Sim.Engine.t option ref = ref None
  let window_start = ref 0.0
  let window_end = ref 0.0
  let first = ref (Float.Array.make 0 Float.nan)  (* nan: committed *)
  let samples = ref (Float.Array.make 0 0.0)
  let n_samples = ref 0
  let arrivals = ref 0
  let calibrate = ref false
  let tick_every = 128
  let reports = ref 0
  let ticks : int list ref = ref []  (* host ns, newest first *)

  let reset (cfg : Harness.Runner.config) =
    engine := None;
    window_start := cfg.warmup;
    window_end := cfg.warmup +. cfg.duration;
    first := Float.Array.make 4096 Float.nan;
    samples := Float.Array.make 4096 0.0;
    n_samples := 0;
    arrivals := 0;
    reports := 0;
    ticks := []

  let attach e = if Option.is_none !engine then engine := Some e
  let now () = match !engine with Some e -> Sim.Engine.now e | None -> 0.0
  let in_window t = t >= !window_start && t < !window_end

  let grow a n fill =
    let a' = Float.Array.make (max (2 * Float.Array.length a) n) fill in
    Float.Array.blit a 0 a' 0 (Float.Array.length a);
    a'

  let arrival (txn : Txn.t) =
    let id = txn.Txn.id in
    if id >= Float.Array.length !first then first := grow !first (id + 1) Float.nan;
    let t = now () in
    Float.Array.set !first id t;
    if in_window t then incr arrivals

  let report (o : Outcome.t) =
    incr reports;
    if !calibrate && !reports mod tick_every = 0 then ticks := Calib.tick_ns () :: !ticks;
    let id = o.txn.Txn.id in
    match o.status with
    | Outcome.Committed when id < Float.Array.length !first ->
      let t0 = Float.Array.get !first id in
      if in_window t0 then begin
        if !n_samples = Float.Array.length !samples then
          samples := grow !samples (!n_samples + 1) 0.0;
        Float.Array.set !samples !n_samples (now () -. t0);
        incr n_samples
      end;
      Float.Array.set !first id Float.nan
    | _ -> ()

  (* In-window commit latencies in simulated seconds, sorted. *)
  let latencies () =
    let a = Array.init !n_samples (Float.Array.get !samples) in
    Array.sort Float.compare a;
    a
end

(* Stores of every server built in the current traced run. *)
let stores : Mvstore.Store.t list ref = ref []

module Plain (P : Harness.Protocol.S) : Harness.Protocol.S = struct
  include P

  let make_client (ctx : msg Cluster.Net.ctx) ~report =
    Sim_lat.attach ctx.Cluster.Net.engine;
    P.make_client ctx ~report:(fun o ->
        Sim_lat.report o;
        report o)
end

module Traced (P : Harness.Protocol.S) : Harness.Protocol.S = struct
  include P

  let wrap_ctx (ctx : msg Cluster.Net.ctx) =
    Probe.attach_engine ctx.Cluster.Net.engine;
    let send ~dst m =
      Probe.enter Probe.Send;
      ctx.send ~dst m;
      Probe.leave ()
    in
    let timer ~delay f =
      Probe.enter Probe.Net_timer;
      ctx.timer ~delay (fun () ->
          Probe.enter Probe.Timer;
          f ();
          Probe.leave ());
      Probe.leave ()
    in
    { ctx with Cluster.Net.send; timer }

  let make_server ctx =
    let s = P.make_server (wrap_ctx ctx) in
    stores := P.server_stores s @ !stores;
    s

  let server_handle s ~src m =
    Probe.enter Probe.Server_handle;
    P.server_handle s ~src m;
    Probe.leave ()

  let make_client (ctx : msg Cluster.Net.ctx) ~report =
    Sim_lat.attach ctx.Cluster.Net.engine;
    P.make_client (wrap_ctx ctx) ~report:(fun o ->
        Probe.enter Probe.Report;
        Sim_lat.report o;
        report o;
        Probe.leave ())

  let client_handle c ~src m =
    Probe.enter Probe.Client_handle;
    P.client_handle c ~src m;
    Probe.leave ()

  let submit c txn =
    Probe.enter Probe.Submit;
    P.submit c txn;
    Probe.leave ()

  let cancel c txn =
    Probe.enter Probe.Cancel;
    let r = P.cancel c txn in
    Probe.leave ();
    r

  let make_replica ctx = P.make_replica (wrap_ctx ctx)
end

let plain (module P : Harness.Protocol.S) : Harness.Protocol.t = (module Plain (P))
let traced (module P : Harness.Protocol.S) : Harness.Protocol.t = (module Traced (P))

let plain_workload (w : Harness.Workload_sig.t) =
  {
    w with
    Harness.Workload_sig.gen =
      (fun rng ~client ->
        let txn = w.gen rng ~client in
        Sim_lat.arrival txn;
        txn);
  }

let traced_workload (w : Harness.Workload_sig.t) =
  {
    w with
    Harness.Workload_sig.gen =
      (fun rng ~client ->
        Probe.enter Probe.Gen;
        let txn = w.gen rng ~client in
        Probe.leave ();
        Sim_lat.arrival txn;
        txn);
  }
