(** Unique, totally ordered transaction timestamps: a physical-clock
    component (integer nanoseconds) plus the issuing client's id as a
    tie-breaker (paper §4.1), packed into one immediate int whose
    order is the lexicographic (time, client id) order. *)

type t = private int

val zero : t
val infinity : t

(** Client ids occupy the low 20 bits: [0 .. max_cid]. *)
val max_cid : int

(** The physical component's range, [min_time .. max_time] ns. *)
val min_time : int

val max_time : int

(** Raises [Invalid_argument] when [cid] or [time] is outside its field. *)
val make : time:int -> cid:int -> t

val time : t -> int
val cid : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val max : t -> t -> t
val min : t -> t -> t

(** [succ t] is the smallest timestamp strictly greater than [t] that
    keeps the same client id (bumps the physical component by 1 ns). *)
val succ : t -> t

val pp : t Fmt.t
val to_string : t -> string
