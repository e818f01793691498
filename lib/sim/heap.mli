(** Array-based binary min-heap with deterministic FIFO order among
    equal priorities. Structure-of-arrays layout: priorities sit in a
    flat [float array] (unboxed), so [push]/[top_prio]/[pop_min]
    allocate nothing per event beyond amortised capacity doubling. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

(** Priority of the minimum element. Raises [Invalid_argument] when
    the heap is empty — pair with [is_empty], not with an option. *)
val top_prio : 'a t -> float

(** The minimum element's payload, left in place. Raises
    [Invalid_argument] when the heap is empty. *)
val top : 'a t -> 'a

(** Remove and return the minimum element's payload. Raises
    [Invalid_argument] when the heap is empty. *)
val pop_min : 'a t -> 'a
