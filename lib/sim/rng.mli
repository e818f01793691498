(** Deterministic, splittable pseudo-randomness for simulations. *)

type t

val create : int -> t

(** Derive an independent child stream; draws on the child do not affect
    the parent and vice versa. *)
val split : t -> t

val int : t -> int -> int
val float : t -> float -> float
val bool : t -> bool

(** Bernoulli draw with probability [p]. *)
val flip : t -> float -> bool

(** Uniform integer in [lo, hi], inclusive. *)
val int_range : t -> int -> int -> int

(** Exponential variate with the given mean. *)
val exponential : t -> mean:float -> float

(** [exponential_into t ~mean a i] writes the same draw into [a.(i)],
    unboxed. *)
val exponential_into : t -> mean:float -> float array -> int -> unit

(** Normal variate clamped to be non-negative. *)
val gaussian : t -> mean:float -> stddev:float -> float

(** Zipfian sampler over [0, n). *)
type zipf

val zipf_create : n:int -> theta:float -> zipf
val zipf_draw : t -> zipf -> int

