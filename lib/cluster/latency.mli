(** One-way message delay models (seconds). Links are not FIFO: jitter
    is drawn per message, so reordering happens naturally. *)

type t

val sample : Sim.Rng.t -> t -> src:Kernel.Types.node_id -> dst:Kernel.Types.node_id -> float

(** [sample_into rng t ~src ~dst a i] writes the same sample, with the
    same RNG draw, into [a.(i)]: unlike {!sample} it boxes no float. *)
val sample_into :
  Sim.Rng.t -> t -> src:Kernel.Types.node_id -> dst:Kernel.Types.node_id ->
  float array -> int -> unit

(** Same base one-way delay for every pair, plus exponential jitter. *)
val uniform : one_way:float -> jitter_mean:float -> t

(** Two delay classes: [remote src dst] pairs see [wide], others
    [local] (geo-replication topologies). *)
val classed :
  local:float -> wide:float ->
  remote:(Kernel.Types.node_id -> Kernel.Types.node_id -> bool) ->
  jitter_mean:float -> t

(** Per-pair symmetric base delays drawn uniformly in
    [min_one_way, max_one_way] once at construction. Only pairs with a
    non-client endpoint have one: sampling between two clients raises
    [Invalid_argument]. *)
val asymmetric :
  Sim.Rng.t -> Topology.t ->
  min_one_way:float -> max_one_way:float -> jitter_mean:float -> t
