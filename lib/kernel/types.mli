(** Core vocabulary: keys, values, node ids, operations. *)

type key = int
type value = int

(** Version ids are positive; [no_vid] (-1) names no version. *)
val no_vid : int

(** Nodes are numbered 0..n-1: servers first, then clients (see
    [Cluster.Topology]). *)
type node_id = int

type op =
  | Read of key
  | Write of key * value

val op_key : op -> key
val is_write : op -> bool
val pp_op : op Fmt.t

(** Dedicated comparators (determinism lint R7): always compare keys
    and node ids through these, never with polymorphic [=]. *)
val key_eq : key -> key -> bool

val node_eq : node_id -> node_id -> bool
val node_compare : node_id -> node_id -> int
val mem_key : key -> key list -> bool
val mem_node : node_id -> node_id list -> bool

(** [List.assoc] / [List.mem_assoc] with the node comparator pinned;
    [assoc_node] raises [Not_found] like [List.assoc]. *)
val assoc_node : node_id -> (node_id * 'a) list -> 'a

val mem_assoc_node : node_id -> (node_id * 'a) list -> bool
