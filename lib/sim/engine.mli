(** Discrete-event simulation engine: virtual clock plus event queue (a
    timing wheel and overflow heap over one node arena). Equal-time
    events run in scheduling order, exactly as a plain priority queue
    keyed by (time, scheduling order) delivers them. No time crosses a call per event, so the queue allocates
    nothing at steady state. *)

type t

val create : unit -> t

(** Current virtual time, in seconds (a boxed float: a caller that
    only records it uses {!stamp}). *)
val now : t -> float

(** [stamp t a i] writes the current time into [a.(i)], unboxed. *)
val stamp : t -> float array -> int -> unit

(** [Clock.read_ns clock ~now:(now t)], without boxing the time. *)
val local_ns : t -> Clock.t -> int

(** Number of events executed so far. *)
val executed_events : t -> int

(** Number of scheduled events not yet delivered. *)
val pending : t -> int

(** Schedule [f] to run [delay] seconds from now. Raises
    [Invalid_argument] on a negative or NaN delay. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_cell t a i f] is [schedule t ~delay:a.(i) f], without
    boxing the delay. *)
val schedule_cell : t -> float array -> int -> (unit -> unit) -> unit

(** Schedule [f] at an absolute virtual time. Raises
    [Invalid_argument] on a time in the past or NaN. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** Make [run] return after the current event finishes. *)
val stop : t -> unit

(** Process events until the queue drains, the optional horizon [until]
    is reached, or [stop] is called. *)
val run : ?until:float -> t -> unit

(** Approximate retained footprint of the queue in words (capacities,
    not live lengths): a memory bound for tests. *)
val footprint_words : t -> int
