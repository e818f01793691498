(** Phase-diagram reduction over a {!Driver.sweep}: one summary per
    knob point (per-protocol seed means, winner, NCC-vs-best-baseline
    delta, violations) plus the crossover frontiers between adjacent
    grid points whose winners differ. *)

type agg = {
  a_protocol : string;
  a_throughput : float;  (** mean over seeds *)
  a_p50 : float;
  a_p99 : float;
  a_abort_rate : float;
  a_violations : int;
}

type point_summary = {
  coords : (string * string) list;
  rows : agg list;  (** scenario protocol order *)
  winner : string;
      (** max mean throughput; ties keep the earliest protocol, so the
          winner is deterministic *)
  ncc_delta : float option;
      (** (NCC − best baseline) / best baseline, when both exist *)
  violations : int;
}

type frontier = {
  f_axis : string;
  f_from : (string * string) list;
  f_to : (string * string) list;
  f_from_winner : string;
  f_to_winner : string;
}

type t = {
  summaries : point_summary list;  (** row-major grid order *)
  frontiers : frontier list;
  total_cells : int;
  total_violations : int;
}

val reduce : Driver.sweep -> t

(** Coordinate-list equality (same axis names and value labels, in
    order) — the join key the reporter uses. *)
val coords_equal : (string * string) list -> (string * string) list -> bool

(** Mean of a per-seed array: an allocation-free reduce loop, hot for
    the R16–R19 allocation plane. *)
val mean : float array -> float
