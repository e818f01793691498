(** Message-passing runtime over the simulator. Each node services its
    inbox with a single CPU: a message costs [cost msg] seconds before
    its handler runs, which models server saturation and queueing.
    A {!Faults.spec} can inject message drop/duplication/delay, link
    partitions and node crash/restart, all replayable from the seed. *)

open Kernel

(** Per-node capabilities handed to protocol implementations. *)
type 'msg ctx = {
  self : Types.node_id;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  topo : Topology.t;
  clock : Sim.Clock.t;
  send : dst:Types.node_id -> 'msg -> unit;
  timer : delay:float -> (unit -> unit) -> unit;
}

(** Node's local physical clock in integer nanoseconds (timestamp unit). *)
val local_ns : 'msg ctx -> int

(** True simulated time in seconds (for measurement, not protocol logic). *)
val now : 'msg ctx -> float

type 'msg t

type fault_stats = {
  dropped : int;      (** lost to drop probability or partitions *)
  duplicated : int;
  delayed : int;
  crashes : int;
}

(** [create engine rng topo ~latency ~clock_of] builds the runtime;
    [clock_of id] supplies each node's (possibly skewed) clock.
    [faults] defaults to {!Faults.none}, in which case the network is
    byte-identical (RNG draws included) to the fault-free runtime.
    While {!Sim.Trace} is active the runtime emits one event per send,
    copy, arrival, queueing, handler execution, loss and fault; tracing
    is passive — no RNG draws, no scheduled events — so it cannot
    change a run's outcome. *)
val create :
  ?faults:Faults.spec ->
  Sim.Engine.t -> Sim.Rng.t -> Topology.t ->
  latency:Latency.t -> clock_of:(Types.node_id -> Sim.Clock.t) -> 'msg t

val ctx : 'msg t -> Types.node_id -> 'msg ctx

(** [phase] gives the phase code (Obs.Phase.code) of the message
    being serviced, for its Handle event (default -1, exported as
    "handle"); only consulted while {!Sim.Trace} is active. *)
val set_handler :
  ?phase:('msg -> int) ->
  'msg t -> Types.node_id ->
  cost:('msg -> float) -> handler:(src:Types.node_id -> 'msg -> unit) -> unit

(** Name every node's trace track by its role (server, replica,
    client), when {!Sim.Trace} is active. *)
val name_tracks : 'msg t -> unit

(** Hook run when a crashed node restarts. Protocol state is durable
    across crashes (the paper models servers as replicated state
    machines); hosts wanting amnesia reset themselves here. *)
val set_on_restart : 'msg t -> Types.node_id -> (unit -> unit) -> unit

val is_up : 'msg t -> Types.node_id -> bool

val send : 'msg t -> src:Types.node_id -> dst:Types.node_id -> 'msg -> unit

val messages_sent : 'msg t -> int

val fault_stats : 'msg t -> fault_stats

(** CPU seconds consumed by a node so far. *)
val busy_time : 'msg t -> Types.node_id -> float

(** Highest per-server CPU utilization over [duration] seconds. *)
val max_server_utilization : 'msg t -> duration:float -> float
