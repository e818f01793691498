(* The interface every concurrency-control protocol implements. A
   protocol supplies its own message type, the per-message CPU cost (so
   the runtime can model server saturation), a server actor and a
   client-side coordinator actor. The harness wires actors to the
   simulated network, drives open-loop load, applies the retry policy
   and collects statistics. *)

open Kernel

module type S = sig
  val name : string

  type msg

  (* Where a message is handled determines whose CPU it costs: the
     harness calls this for server-bound messages; client-bound
     messages cost [Cost.client]. *)
  val msg_cost : Cost.t -> msg -> float

  (* Which lifecycle phase a message belongs to, for observability:
     handler-execution spans in the trace are labelled with the phase
     of the message being serviced. Purely descriptive — never
     consulted by the runtime's scheduling or cost model. *)
  val msg_phase : msg -> Obs.Phase.t

  type server

  val make_server : msg Cluster.Net.ctx -> server
  val server_handle : server -> src:Types.node_id -> msg -> unit

  (* The store(s) backing this server, so the harness can install the
     checker's commit hook (replica shadows excluded: only the
     authoritative copy feeds the checker). *)
  val server_stores : server -> Mvstore.Store.t list

  (* Protocol-specific counters, summed across servers by the harness. *)
  val server_counters : server -> (string * float) list

  type client

  (* [report] must be called exactly once per submitted transaction
     attempt, with the attempt's outcome. *)
  val make_client : msg Cluster.Net.ctx -> report:(Outcome.t -> unit) -> client

  val client_handle : client -> src:Types.node_id -> msg -> unit

  (* Begin executing one attempt of [txn]. The coordinator pre-assigns
     timestamps afresh on every call, so the harness retries aborted
     transactions simply by submitting them again. *)
  val submit : client -> Txn.t -> unit

  (* Abandon the in-flight attempt of [txn] (the harness's request
     timeout fired): tear down coordinator state, tell the servers to
     release whatever the attempt holds, and report
     [Aborted Timed_out] for the attempt — synchronously, so the
     harness can schedule the retry. If nothing is in flight for
     [txn] (e.g. the submit raced the cancel), still report the
     timeout outcome. Return [`Keep_waiting] only when the attempt is
     past its point of no return (e.g. a commit phase that must be
     re-driven, not abandoned); the client then retransmits and the
     harness re-arms the timeout instead of retrying. *)
  val cancel : client -> Txn.t -> [ `Cancelled | `Keep_waiting ]

  val client_counters : client -> (string * float) list

  (* Replica-node actor, for replicated protocols (the topology's
     [replicas_per_server] nodes). Non-replicated protocols include
     {!No_replicas}. *)
  type replica

  val make_replica : msg Cluster.Net.ctx -> replica
  val replica_handle : replica -> src:Types.node_id -> msg -> unit
end

(* Mix-in for protocols without a replication layer. *)
module No_replicas = struct
  type replica = unit

  let make_replica _ = ()
  let replica_handle () ~src:_ _ = ()
end

type t = (module S)
