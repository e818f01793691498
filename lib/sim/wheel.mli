(** Single-level timing wheel with the same delivery contract as
    {!Heap}: events come out in (priority, scheduling-order) order, so
    equal-instant events keep FIFO order and either structure drives a
    byte-identical simulation. Events within the wheel's window (4,096
    ticks of 1 µs) are scheduled and popped in O(1) amortised; events
    beyond it wait in an overflow {!Heap} and enter the window as time
    reaches them. Every event lives in one node arena whose freed
    nodes are reused, so steady-state churn holds no garbage (the
    1M-event churn test bounds [footprint_words]). *)

type 'a t

(** An empty wheel with 1 µs ticks. Events closer together than one
    tick are ordered by exact priority, then scheduling order, so the
    tick width affects cost only, never delivery order. *)
val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Schedule a payload at an absolute priority (seconds, >= 0). *)
val schedule : 'a t -> float -> 'a -> unit

(** Priority of the minimum element. Raises [Invalid_argument] when
    the wheel is empty — pair with [is_empty], not with an option. *)
val top_prio : 'a t -> float

(** Remove and return the minimum element's payload. Raises
    [Invalid_argument] when the wheel is empty. *)
val pop_min : 'a t -> 'a

(** Approximate retained footprint in words (array capacities, not
    live lengths) — a memory-bound observable for tests. *)
val footprint_words : 'a t -> int
