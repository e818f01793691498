(** A flat, open-addressing hash table from int keys, for the per-key
    hot tables: the store's chains, the NCC server's rows, and the
    streaming checker's live set, orders and pending maps.

    Two layouts share one probe loop:
    - {!keyed}: every value carries its own key ([key v]), so a binding
      is one array slot and no key array exists;
    - {!create}: a key array beside the value array.

    Empty slots hold the table's [empty] value, which the caller picks
    so that no value it binds is physically equal to it; {!find} hands
    it back for a missing key. Keys are spread by multiplicative
    (Fibonacci) hashing, so keys in one residue class modulo a power of
    two still land on distinct slots; collisions probe linearly, the
    load stays at most one half, and removal shifts the rest of the
    probe run back instead of leaving tombstones. Lookups and bindings
    allocate nothing except when the arrays double. Not for float
    values.

    The only traversal is in ascending key order, so no output can
    depend on hash order (docs/determinism.md, rule R3). *)

type 'a t

(** A table whose values carry their keys: [key v] is the key [v] is
    bound under. *)
val keyed : key:('a -> int) -> empty:'a -> 'a t

(** A table with a key array beside the values. *)
val create : empty:'a -> 'a t

val length : 'a t -> int

(** The value bound to a key, or the table's [empty] value. *)
val find : 'a t -> int -> 'a

(** The table's [empty] value, as {!find} returns it for a missing
    key. *)
val absent : 'a t -> 'a

val mem : 'a t -> int -> bool

(** Bind a key, replacing any existing binding. In a {!keyed} table,
    [key v] must equal the key. Raises [Invalid_argument] when [v] is
    the empty value. *)
val replace : 'a t -> int -> 'a -> unit

(** Drop a key's binding, if any. *)
val remove : 'a t -> int -> unit

(** Visit the bindings in ascending key order. The key set is
    snapshotted first: a binding removed during the traversal is not
    visited, one added is not visited either. The sorted snapshot is
    kept until the key set next changes, so repeated traversals of a
    stable table do not sort again. *)
val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit

val fold_sorted : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
