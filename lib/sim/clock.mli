(** Per-node skewed physical clocks (constant offset + linear drift). *)

type t = { offset : float; drift : float }

val perfect : t
val make : offset:float -> drift:float -> t

(** Random skew: offset in [-max_offset, +max_offset] seconds, drift in
    [-max_drift, +max_drift] seconds per second. *)
val random : Rng.t -> max_offset:float -> max_drift:float -> t

(** Local reading (seconds) given the true simulated time. *)
val read : t -> now:float -> float

(** Local reading as integer nanoseconds (timestamp unit). *)
val read_ns : t -> now:float -> int

(** [read_ns clock ~now:cell.(0)], reading the time from a one-element
    float array without boxing it. *)
val read_ns_cell : t -> float array -> int
