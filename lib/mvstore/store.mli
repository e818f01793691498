(** Multi-versioned key-value store implementing the version-chain and
    timestamp-refinement rules of the paper's Algorithm 4.2, with
    timestamp-ordered entry points for the MVTO/TAPIR baselines. *)

open Kernel

type status = Undecided | Committed

type version = {
  vid : int;  (** globally unique across stores within one run *)
  value : Types.value;
  mutable tw : Ts.t;
  mutable tr : Ts.t;
  mutable status : status;
  writer : int;  (** creating transaction id; 0 = initial version *)
  mutable parked : (version -> unit) list;
}

type t

(** Reset the domain-local version-id counter (between independent
    runs; each run executes entirely on one domain). *)
val reset_vids : unit -> unit

val create : unit -> t

(** A key's version chain. Servers that keep their own per-key state
    resolve a key once with {!chain} and use the [chain_*] entry
    points on the handle. The key-taking writes, commits and aborts
    are one-line wrappers over their [chain_*] counterparts; the
    key-taking reads build no chain (see {!chain}). *)
type chain

(** The key's chain, built on demand. A key's first access of any kind
    draws its committed initial version and announces it to the
    [on_commit] hook. Until the key takes a second version ({!write},
    {!insert_ordered}) or a caller asks for its chain here, that
    version sits alone in a flat per-store table, and {!most_recent},
    {!most_recent_committed}, {!read}, {!version_at},
    {!committed_order}, {!chain_length} and {!all_committed_orders}
    answer from it. The chain is then built around the same record,
    as its terminator: vids, [t_r] refinements and announcements do
    not depend on when (or whether) the chain is built. *)
val chain : t -> Types.key -> chain

(** A fresh chain bound to no key and holding no version, for a
    caller's own "no chain here" value. No [chain_*] function may be
    applied to it. *)
val empty_chain : unit -> chain

(** The most recent version (any status). *)
val chain_head : chain -> version

(** {!write} on a resolved chain. *)
val chain_write : t -> chain -> Types.value -> ts:Ts.t -> writer:int -> version

(** {!read} on a resolved chain. *)
val chain_read : ?refine:bool -> chain -> ts:Ts.t -> version

(** {!commit_in} on a resolved chain; [key] names it to the hook. *)
val chain_commit : t -> Types.key -> chain -> version -> unit

(** {!abort_version} on a resolved chain. *)
val chain_abort : chain -> version -> unit

(** {!prev_version} on a resolved chain. *)
val chain_prev : chain -> version -> version option

(** {!next_version} on a resolved chain. *)
val chain_next : chain -> version -> version option

val most_recent : t -> Types.key -> version
val most_recent_committed : t -> Types.key -> version

(** NCC write (Alg 4.2): creates an undecided version with
    [tw = tr = max ts (succ curr.tr)], ordered after the current head. *)
val write : t -> Types.key -> Types.value -> ts:Ts.t -> writer:int -> version

(** NCC read (Alg 4.2): reads the most recent version, refining its
    [tr] to [max ts tr] unless [refine:false] (fused read-modify-write
    reads serve the value without moving [tr]). *)
val read : ?refine:bool -> t -> Types.key -> ts:Ts.t -> version

(** Flip a version to committed and run its parked callbacks. *)
val commit_version : version -> unit

(** [commit_in t key v] is {!commit_version} plus the [on_commit]
    announcement: the hook receives the version together with its
    nearest committed chain neighbors at commit time. Protocol
    servers commit through this entry point so streaming checkers can
    rebuild per-key version orders online. *)
val commit_in : t -> Types.key -> version -> unit

(** Install the per-store commit observer. It fires for every
    [commit_in] and for each key's initial version at the key's first
    access. Installation also replays the committed versions of every
    key already accessed, chained or not, in ascending key order
    (oldest first, with the previous committed version as [prev]), so
    versions committed before the hook was installed — e.g. during
    server construction — are never silently skipped. *)
val set_on_commit :
  t ->
  (Types.key -> version -> prev:version option -> next:version option -> unit) ->
  unit

(** Unlink an aborted version and run its parked callbacks. *)
val abort_version : t -> Types.key -> version -> unit

(** The version created immediately after [v] on this key, if any
    (smart-retry rule, Alg 4.4). *)
val next_version : t -> Types.key -> version -> version option

(** The version immediately preceding [v] in the current chain (aborted
    predecessors are unlinked, so this is the live predecessor). *)
val prev_version : t -> Types.key -> version -> version option

(** Latest version (any status) with [tw <= ts]. Total: timestamps
    below the initial version resolve to the chain terminator. *)
val version_at : t -> Types.key -> ts:Ts.t -> version

(** Insert an undecided version in tw order (MVTO writes). *)
val insert_ordered : t -> Types.key -> Types.value -> tw:Ts.t -> writer:int -> version

(** Register a callback to run when the version is decided. *)
val park : version -> (version -> unit) -> unit

val versions_created : t -> int

(** Committed version ids of a key, oldest first. *)
val committed_order : t -> Types.key -> int list

val all_committed_orders : t -> (Types.key * int list) list

(** Drop old committed versions beyond [keep] per chain (never the
    chain terminator or undecided versions). Do not use in runs whose
    history will be checked. *)
val gc : ?keep:int -> t -> unit

val chain_length : t -> Types.key -> int
