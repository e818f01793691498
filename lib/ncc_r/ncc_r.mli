(** Replicated NCC (§4.6): each server leads a Raft group over its
    replica nodes; state-changing protocol messages are replicated and
    responses release only once the changes they depend on are durable.
    Follower replicas apply the committed message stream to shadow NCC
    state machines.

    Run with [Runner.config.replicas_per_server >= 1] (2 gives
    majority-of-3 groups). With zero replicas the groups are singletons
    and replication is a no-op gate. *)

type mode =
  | Every_request  (** replicate each Exec/Decide/Retry (§4.6 basic scheme) *)
  | Deferred
      (** replicate once at the transaction's last shot (the paper's
          future-work optimization) *)

type msg = App of Ncc.Msg.msg | Raft of Ncc.Msg.msg Rsm.Raft.msg

(** Raft election/heartbeat periods for the server groups; wide-area
    deployments need timeouts well above the replica round trip. *)
type raft_timeouts = { election : float; heartbeat : float }

val make_protocol :
  ?config:Ncc.Msg.config -> ?mode:mode -> ?raft_timeouts:raft_timeouts ->
  ?name:string -> unit -> Harness.Protocol.t

(** NCC-R: every state change replicated before exposure. *)
val protocol : Harness.Protocol.t

(** NCC-R-def: replication deferred to the last shot. *)
val protocol_deferred : Harness.Protocol.t

(**/**)

(* Exposed for tests. *)
type server

val make_server :
  Ncc.Msg.config -> mode -> raft_timeouts -> msg Cluster.Net.ctx -> server
val server_handle : server -> src:Kernel.Types.node_id -> msg -> unit
val server_counters : server -> (string * float) list

type replica

val make_replica : Ncc.Msg.config -> raft_timeouts -> msg Cluster.Net.ctx -> replica
val replica_handle : replica -> src:Kernel.Types.node_id -> msg -> unit
