(** Discrete-event simulation engine: virtual clock plus event queue.
    Deterministic: equal-time events run in scheduling order. *)

type t

(** The engine starts on {!Heap}; the first time this many events are
    pending it moves them into a {!Wheel} for good. Both deliver in
    (priority, scheduling-order) order, so results never change. *)
val wheel_at : int

val create : unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Number of events executed so far. *)
val executed_events : t -> int

(** Number of scheduled events not yet delivered. *)
val pending : t -> int

(** Schedule [f] to run [delay] seconds from now. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** Schedule [f] at an absolute virtual time (must not be in the past). *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** Make [run] return after the current event finishes. *)
val stop : t -> unit

(** Process events until the queue drains, the optional horizon [until]
    is reached, or [stop] is called. *)
val run : ?until:float -> t -> unit
