(** The sweep driver: expands a scenario into its (protocol x
    knob-point x seed) cells, runs each on the {!Harness.Pool}
    work-stealing pool with the streaming checker attached, and
    collects per-cell stats plus the checker verdict. Cell order —
    protocol-major, then point, then seed — is byte-identical for any
    [jobs] (pinned by test and CI). *)

type cell = {
  protocol : string;
  coords : (string * string) list;
      (** (axis name, value label) pairs, axis order *)
  point : Knob.point;
  seed : int;
}

type cell_result = {
  cell : cell;
  throughput : float;
  p50 : float;  (** seconds *)
  p99 : float;
  abort_rate : float;
  committed : int;
  gave_up : int;
  check : string;
      (** runner verdict: ["ok (...)"], ["VIOLATION: ..."] or
          ["skipped"] — a violating cell is a row, never an abort of
          the sweep *)
  ok : bool;  (** false iff [check] reports a violation *)
}

type sweep = {
  scenario : string;
  quick : bool;
  checked : bool;
  axes : (string * string list) list;
  protocols : string list;
  seeds : int list;
  points : (string * string) list list;  (** grid coordinates, row-major *)
  cells : cell_result list;
}

(** Shared Zipf tables keyed by [(n, theta)]: one zeta normalization
    per distinct key instead of one per cell. Tables are immutable once
    built; the driver resolves them before the fan-out so pool jobs
    capture them read-only. *)
module Zipf_memo : sig
  type t

  val create : unit -> t
  val get : t -> n:int -> theta:float -> Sim.Rng.zipf
end

(** The runner config of one cell at [point]: the scenario's cluster,
    load, latency regime and clock skew, with the quick or full
    measurement window, streaming-checked when [check]. *)
val cfg_of :
  quick:bool -> check:bool -> Knob.point -> seed:int -> Harness.Runner.config

(** Run the scenario. [jobs] defaults to 1 (sequential), [quick]
    shrinks the per-cell measurement window (offered load is untouched,
    so rankings survive), [check] (default true) streams
    every cell through {!Checker.Stream} via the runner, [seeds]
    overrides the scenario's seed list.
    @raise Invalid_argument on an unknown protocol name. *)
val run :
  ?jobs:int ->
  ?quick:bool ->
  ?check:bool ->
  ?seeds:int list ->
  Scenario.t ->
  sweep
