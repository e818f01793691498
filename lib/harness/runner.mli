(** Experiment runner: open-loop Poisson clients with a
    retry-until-committed policy over a simulated cluster, producing
    throughput/latency/abort statistics and an optional history-checker
    verdict. *)

type latency_spec =
  | Uniform of { one_way : float; jitter : float }
  | Asymmetric of { min_one_way : float; max_one_way : float; jitter : float }
  | Geo_replicas of { local : float; wide : float; jitter : float }
      (** replica nodes live in a remote datacenter: any path touching a
          replica pays the wide-area one-way delay *)

(** Both checked levels feed {!Checker.Stream} as commits happen.
    [Streaming] checks strict serializability in bounded memory;
    [Serializable] checks plain serializability (what TAPIR-CC and MVTO
    promise) over the retained history. *)
type check_level = No_check | Streaming | Serializable

(** The [--check] spellings: [on], [ser], [off]. *)
val check_levels : (string * check_level) list

(** Arrival-rate shape over simulated time. [Constant] is the
    historical homogeneous Poisson process and draws exactly the legacy
    RNG sequence; the other curves modulate the rate by a deterministic
    multiplier via Lewis-Shedler thinning, so they are
    seed-reproducible like everything else. *)
type arrival_curve =
  | Constant
  | Diurnal of { period : float; trough : float }
      (** cosine day/night swing: multiplier 1.0 at peak, [trough] at
          the bottom, one cycle per [period] seconds *)
  | Bursty of { period : float; burst_len : float; burst_mult : float }
      (** every [period] seconds, [burst_len] seconds at [burst_mult]x
          the base rate; 1.0x otherwise *)

(** Hot-key admission shedding: an abort bumps a decaying score on each
    of the transaction's keys; an arrival touching a key whose score
    exceeds [shed_threshold] is shed (counted in [result.dropped] and
    the [run.shed_hot_key] gauge). *)
type hot_key_spec = {
  shed_threshold : float;
  shed_halflife : float;  (** seconds for a key's score to halve *)
}

type config = {
  seed : int;
  n_servers : int;
  n_clients : int;
  offered_load : float;  (** transactions/second, whole system *)
  duration : float;      (** measurement window (simulated seconds) *)
  warmup : float;
  drain : float;
  max_inflight : int;    (** per-client open-loop back-off threshold *)
  max_retries : int;
  retry_backoff : float;
  cost : Cost.t;
  latency : latency_spec;
  max_clock_offset : float;
  max_clock_drift : float;
  check : check_level;
  check_window : int;
      (** [Streaming] only: commits per checker epoch — the GC window
          (default 1024) *)
  series_width : float option;
  replicas_per_server : int;
      (** replica nodes per server, for replicated protocols (default 0) *)
  request_timeout : float option;
      (** per-attempt client timeout; the attempt is cancelled and
          retried when it fires (default [None] = wait forever) *)
  faults : Cluster.Faults.spec;
      (** injected network/node faults (default {!Cluster.Faults.none}) *)
  arrival : arrival_curve;  (** arrival-rate shape (default [Constant]) *)
  admission_cap : int option;
      (** system-wide in-flight transaction ceiling; arrivals beyond it
          are shed like the per-client back-off threshold
          (default [None]) *)
  hot_key_shed : hot_key_spec option;
      (** hot-key admission shedding (default [None]) *)
  store_gc : (float * int) option;
      (** [Some (period, keep)]: truncate committed version chains on
          every server store to [keep] versions every [period] simulated
          seconds, for bounded-memory multi-million-txn runs. The
          checker learns versions at commit time, so any check level
          pairs with it (default [None]) *)
}

val default : config

type result = {
  protocol : string;
  workload : string;
  offered : float;
  committed : int;   (** transactions started in-window that committed *)
  gave_up : int;     (** exceeded [max_retries] *)
  attempts : int;    (** all submissions, including warmup and retries *)
  aborts : (string * int) list;  (** in-window aborted attempts by reason *)
  dropped : int;     (** arrivals suppressed by the back-off threshold *)
  throughput : float;
  mean_latency : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  messages : int;
  msgs_per_commit : float;
  max_utilization : float;
      (** busiest server's CPU utilization over the measurement window
          (warmup and drain excluded) *)
  counters : (string * float) list;  (** protocol-specific, summed *)
  series : (float * float) list;     (** commit rate over time *)
  check_result : string;  (** "ok (...)", "VIOLATION: ...", or "skipped" *)
}

(** The run's history check ran and found a violation. A skipped check
    is not one. Every verdict reader goes through this. *)
val violated : result -> bool

(** [Error msg] when [config] cannot run: fewer than one server or
    client, negative replicas, a negative or non-finite load, duration,
    warmup, drain or [retry_backoff], more nodes than {!Kernel.Ts}
    client ids hold, local clocks (offset and drift over warmup,
    duration and drain) that can read past half the packed time range
    or are not finite, [check_window] < 1, a
    [request_timeout] that is not finite and > 0, a [series_width]
    <= 0, or a [store_gc] period <= 0 or keep < 1. Zero durations are
    valid. {!run} applies it first; the CLIs report it and exit 2. *)
val validate : config -> (unit, string) Stdlib.result

(** Run one simulation. [label] overrides the protocol's display name;
    [metrics] supplies the registry protocol counters and run gauges
    land in. While {!Sim.Trace} is active the run emits its txn
    lifecycle (admission, attempts, back-off, shed, give-up), checker
    and per-message events. Metrics and tracing are passive: neither
    can change the result (the observer-effect test pins this).
    @raise Invalid_argument when {!validate} rejects the config, before
    the run starts. *)
val run :
  ?label:string ->
  ?metrics:Obs.Metrics.t ->
  Protocol.t -> Workload_sig.t -> config -> result
