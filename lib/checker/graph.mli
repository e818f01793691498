(** Shared serialization-graph machinery for the checkers: flat graph
    building, the dense freeze, and the iterative colored cycle search.

    Node encoding: transactions are their (positive) ids, the initial
    writer is 0, auxiliary commit-event chain nodes are negative. Nodes
    are numbered in order of first mention. *)

type t

val create : unit -> t

(** Drop every node and edge, keeping the storage for reuse. *)
val clear : t -> unit

(** [fresh g id] numbers a new node; [link g a b] adds an edge between
    node numbers. *)
val fresh : t -> int -> int
val link : t -> int -> int -> unit

(** The same by node id, numbering on first mention; [edge] ignores
    self-loops. *)
val add_node : t -> int -> unit
val edge : t -> int -> int -> unit

(** First cycle found (in node ids), or [None] if acyclic. Roots are
    tried newest node first and successors newest edge first. *)
val find_cycle : t -> int list option

(** Cycle witness rendered as ["a -> b -> c"]. *)
val describe_cycle : int list -> string
