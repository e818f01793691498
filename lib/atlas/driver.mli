(** The sweep driver, the one sweep engine behind every atlas preset
    (scenarios and the paper's figures alike): expands a scenario into
    its (roster entry x knob-point x seed) cells, runs each on the
    {!Harness.Pool} work-stealing pool and keeps each cell's full
    runner result with the checker verdict. Cell order — roster-major,
    then point, then seed — is byte-identical for any [jobs] (pinned
    by test and CI). *)

type cell = {
  entry : int;  (** index in the scenario's roster *)
  protocol : string;  (** the entry's label *)
  coords : (string * string) list;  (** (axis, value label), axis order; [] if not swept *)
  point : Knob.point;  (** after the entry's [tune] *)
  seed : int;
}

type cell_result = {
  cell : cell;
  result : Harness.Runner.result;
  abort_rate : float;  (** {!abort_rate} of [result] *)
  ok : bool;  (** false iff the checker reported a violation *)
}

type sweep = {
  scenario : string;
  description : string;  (** the scenario's; a figure prints it as its title *)
  quick : bool;
  check : Harness.Runner.check_level;
  axes : (string * string list) list;
  protocols : string list;  (** roster labels, in roster order *)
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

(** In-window abort fraction: aborted over decided attempts. *)
val abort_rate : Harness.Runner.result -> float

(** The runner config of one cell at [point]: its cluster, replicas,
    load, window, latency and clock skew, checked at [check]. *)
val cfg_of :
  check:Harness.Runner.check_level -> Knob.point -> seed:int -> Harness.Runner.config

(** The scenario's cells, in run order, without running them. [seeds]
    overrides the scenario's seed list. *)
val expand : ?seeds:int list -> Scenario.t -> cell list

(** Run the scenario. [jobs] defaults to 1 (sequential), [check] to the
    scenario's level, [seeds] to its seed list. *)
val run :
  ?jobs:int -> ?check:Harness.Runner.check_level -> ?seeds:int list -> Scenario.t -> sweep

(** Each roster entry's label and its cells, in roster order. *)
val entries : sweep -> (string * cell_result list) list
