(** What a server knows of each wire (one attempt of one transaction)
    it has seen: one {!Inttbl} from a wire id to the attempt's
    undecided record, or, once the attempt is decided, to one of two
    shared outcome markers, committed and aborted. A decision is kept
    for the run, so a late or duplicated message for a decided wire is
    refused rather than run again, and a recovery query is answered
    from it. Every lookup allocates nothing. There is deliberately no
    traversal. *)

type 'a t

(** A table over records made by [marker], which is called three times
    (the empty value and the two outcome markers, none of which is ever
    bound as a record) and must return a fresh value each time: a
    record with a mutable field does. Raises [Invalid_argument]
    otherwise. *)
val create : (unit -> 'a) -> 'a t

(** A wire's undecided record, or {!absent} when it has none: never
    seen, or decided. *)
val find : 'a t -> int -> 'a

(** The value {!find} returns for a wire with no undecided record. *)
val absent : 'a t -> 'a

(** Bind an undecided wire's record. Not for a decided wire. *)
val bind : 'a t -> int -> 'a -> unit

val decided : 'a t -> int -> bool

(** Whether the wire was decided and its decision was to commit. *)
val committed : 'a t -> int -> bool

(** Record a wire's decision and return the undecided record it held,
    or {!absent} when it held none. A wire decided already keeps its
    first outcome, and gives {!absent}. *)
val decide : 'a t -> int -> commit:bool -> 'a
