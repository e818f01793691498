(** A small mutable map from int keys, for per-client coordinator state
    (in-flight attempts by wire or transaction id, attempt counters).

    Bindings sit in one sorted key array beside a value array, so an
    empty map is three words, a lookup is a binary search, and a
    lookup allocates nothing. Inserting or removing shifts the bindings
    after the key; sized for tens of bindings, fine for a thousand.

    There is deliberately no traversal: callers look up, bind and drop
    single keys, so no output can depend on binding order. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val find_opt : 'a t -> int -> 'a option

(** Bind a key, replacing any existing binding. *)
val replace : 'a t -> int -> 'a -> unit

(** Drop a key's binding, if any. *)
val remove : 'a t -> int -> unit
