(** Array-based binary min-heap with deterministic FIFO order among
    equal priorities: the delivery order {!Engine} must reproduce, which
    the identity tests check by draining both. Priorities sit in a flat
    [float array] (unboxed), so the heap allocates nothing per element
    beyond amortised capacity doubling; a caller in another module
    still boxes each priority it passes in or reads out. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

(** Priority of the minimum element. Raises [Invalid_argument] when
    the heap is empty — pair with [is_empty], not with an option. *)
val top_prio : 'a t -> float

(** Remove and return the minimum element's payload. Raises
    [Invalid_argument] when the heap is empty. *)
val pop_min : 'a t -> 'a
