(** The one name -> protocol table: every protocol in the tree, with
    the ablations, the NCC-noRTC negative control and the replicated
    NCC-R variants. [ncc_sim -p] and every atlas preset resolve names
    here. *)

val all : (string * Harness.Protocol.t) list
val names : string list

(** Case-insensitive lookup: the display name and the protocol. *)
val find : string -> (string * Harness.Protocol.t) option

(** True for the variants that need replica nodes (NCC-R, NCC-R-def):
    without them they run unreplicated. *)
val is_replicated : string -> bool

(** True for NCC and its ablations; the NCC-vs-best-baseline delta
    compares against protocols outside this family. *)
val is_ncc_family : string -> bool
