(** The typed knob space of the contention atlas: a {!point} fixes
    every parameter a cell needs, an {!axis} names one knob plus the
    values to sweep, and {!expand} produces the deterministic row-major
    grid. See docs/atlas.md for the knob table. *)

(** [Spec] runs a latency model as given (a figure's uniform or
    replica-group delays). *)
type latency_regime = Lan | Datacenter | Wan | Spec of Harness.Runner.latency_spec

type workload_kind =
  | Micro_mix
      (** the {!Workload.Micro} substrate; [write_fraction] selects
          read-write transactions *)
  | Hotspot of { hot_keys : int; hot_fraction : float }
  | Ycsb of Workload.Ycsb.mix
  | Rmw_chain of { chain_min : int; chain_max : int }
  | Google_f1
  | Google_wf  (** Google-F1 at the point's [write_fraction] *)
  | Facebook_tao
  | Tpcc  (** warehouses spread over the point's [n_servers] *)
  | Micro of Workload.Micro.params  (** exact; the point's contention knobs unused *)

(** The measurement window, simulated seconds; [series] is the bucket
    width of the commit-rate series, when one is kept. *)
type window = { duration : float; warmup : float; drain : float; series : float option }

type point = {
  workload : workload_kind;
  n_keys : int;
  zipf_theta : float;
  write_fraction : float;
  payload_bytes : int;
  txn_keys_min : int;
  txn_keys_max : int;
  clock_skew : float;  (** max per-node clock offset, seconds *)
  latency : latency_regime;
  n_servers : int;
  n_clients : int;
  replicas : int;  (** replica nodes per server *)
  load : float;  (** offered transactions/second, whole system *)
  window : window;
}

(** The paper's testbed shape at moderate contention. *)
val default_point : point

type axis =
  | Workload of workload_kind list
  | Zipf_theta of float list
  | Write_fraction of float list
  | Payload of int list
  | Txn_keys of (int * int) list
  | Clock_skew of float list
  | Latency of latency_regime list
  | Servers of int list
  | Clients of int list
  | Load of float list

val axis_name : axis -> string

(** Display labels for the axis's values, in sweep order. *)
val axis_labels : axis -> string list

(** [expand base axes]: the row-major grid (first axis slowest), each
    cell as (coordinates, point) where coordinates are (axis name,
    value label) pairs in axis order. Empty [axes] yields the single
    base point with empty coordinates. *)
val expand :
  point -> axis list -> ((string * string) list * point) list

val latency_spec : latency_regime -> Harness.Runner.latency_spec

(** [(n, theta)] of the Zipf table this point's generator draws from,
    if any — the driver's memo key. *)
val zipf_key : point -> (int * float) option

(** Materialize the point's workload. [?zipf] supplies the shared
    precomputed table for {!zipf_key} (ignored by generators that don't
    use one). *)
val workload_of : ?zipf:Sim.Rng.zipf -> point -> Harness.Workload_sig.t
