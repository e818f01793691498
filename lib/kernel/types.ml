(* Core vocabulary shared by every layer of the system.

   Keys are integers; the key space is partitioned across servers by the
   placement function in [Cluster.Topology]. Values are integers — the
   checker only needs to distinguish versions, and payload size (which
   matters for the CPU/network cost model) is carried separately on each
   operation as [bytes]. *)

type key = int
type value = int

(* Version ids are positive; this one names no version. *)
let no_vid = -1

type node_id = int
(** Nodes are numbered 0 .. n-1; servers first, then clients (see
    [Cluster.Topology]). *)

type op =
  | Read of key
  | Write of key * value

let op_key = function Read k -> k | Write (k, _) -> k
let is_write = function Write _ -> true | Read _ -> false

(* Dedicated comparators (determinism lint R7): key and node_id are
   int aliases today, but every comparison goes through these so the
   representation can change without silently falling back to
   polymorphic structural equality. *)
let key_eq : key -> key -> bool = Int.equal
let node_eq : node_id -> node_id -> bool = Int.equal
let node_compare : node_id -> node_id -> int = Int.compare
let mem_key k l = List.exists (fun k' -> key_eq k k') l
let mem_node n l = List.exists (fun n' -> node_eq n n') l

(* [List.assoc] / [List.mem_assoc] with the node comparator pinned. *)
let assoc_node n l = snd (List.find (fun (n', _) -> node_eq n n') l)
let mem_assoc_node n l = List.exists (fun (n', _) -> node_eq n n') l

let pp_op ppf = function
  | Read k -> Fmt.pf ppf "R(%d)" k
  | Write (k, v) -> Fmt.pf ppf "W(%d=%d)" k v
