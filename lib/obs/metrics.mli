(** Metrics registry: named counters, gauges and histograms, optionally
    scoped per node. One registry per run; "per protocol" scoping falls
    out of the harness creating a fresh registry per simulation.
    Naming scheme and determinism guarantees: docs/observability.md. *)

type t

type counter
type gauge

val create : unit -> t

(** The pseudo-node for run-scoped (node-less) metrics. *)
val run_scope : int

(** Get-or-create. [node] defaults to {!run_scope}; below it raises
    [Invalid_argument]. *)
val counter : t -> ?node:int -> string -> counter

val inc : counter -> float -> unit

(** One-shot get-or-create + increment. *)
val add : t -> ?node:int -> string -> float -> unit

(** Fold a [(name, value)] list into the registry (protocol counters). *)
val add_list : t -> ?node:int -> (string * float) list -> unit

val gauge : t -> ?node:int -> string -> gauge
val set_gauge : t -> ?node:int -> string -> float -> unit

(** Get-or-create a histogram (log-bucketed, Stats.Hist defaults). *)
val hist : t -> ?node:int -> string -> Stats.Hist.t

val observe : t -> ?node:int -> string -> float -> unit

(** All cells, sorted by (name, node); {!run_scope} sorts first. *)
val counters : t -> ((string * int) * float) list

val gauges : t -> ((string * int) * float) list
val hists : t -> ((string * int) * Stats.Hist.t) list

(** Counter families summed across nodes, sorted by name — the
    historical [Runner.result.counters] shape. *)
val counter_totals : t -> (string * float) list

(** The registry as a JSON document (totals, per-node cells, histogram
    summaries with p50/p90/p99/p999). *)
val to_json : t -> Jsonw.t
