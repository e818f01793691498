(** Embedding API: a simulated cluster running one protocol, driven
    transaction by transaction. Used by the examples; [Runner] is the
    load-generating counterpart. *)

open Kernel

type t = {
  submit : client:Types.node_id -> Txn.t -> unit;
      (** Start one attempt; the outcome arrives via [on_outcome]. *)
  run_for : float -> unit;  (** advance virtual time (seconds) *)
  run_until_quiet : unit -> unit;
      (** drain all pending events — do not use with protocols that run
          perpetual timers (e.g. replicated NCC's Raft heartbeats);
          use [run_for] there *)
  after : float -> (unit -> unit) -> unit;
      (** schedule a callback after a virtual-time delay (e.g. randomized
          retry back-off — immediate synchronized retries can livelock) *)
  now : unit -> float;
  servers : Types.node_id list;
  clients : Types.node_id list;
  version_orders : unit -> (Types.key * int list) list;
      (** committed version ids per key, oldest first, across servers *)
  topology : Cluster.Topology.t;
}

val make :
  ?seed:int ->
  ?n_servers:int ->
  ?n_clients:int ->
  ?replicas_per_server:int ->
  ?one_way:float ->
  ?jitter:float ->
  ?max_clock_offset:float ->
  ?cost:Cost.t ->
  Protocol.t ->
  on_outcome:(client:Types.node_id -> Outcome.t -> unit) ->
  t
