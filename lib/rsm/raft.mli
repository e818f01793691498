(** Compact Raft-style replicated state machine — the fault-tolerance
    substrate the paper's system model places under every server
    (§2.1). Covers elections with randomized timeouts, term and vote
    safety, heartbeats, log replication with the consistency check,
    proposal batching, majority commit and in-order application.
    Log compaction and reconfiguration are out of scope.

    Transport-agnostic: the host supplies [send] and [timer]; committed
    commands surface through [on_commit]. Note that a leader commits
    prior-term entries only alongside a newer proposal (the classic
    "no-op on election" is left to the host). *)

type 'cmd entry = { e_term : int; e_cmd : 'cmd }

type 'cmd msg =
  | Request_vote of { rv_term : int; rv_last_index : int; rv_last_term : int }
  | Vote of { v_term : int; v_granted : bool }
  | Append_entries of {
      ae_term : int;
      ae_prev_index : int;
      ae_prev_term : int;
      ae_entries : 'cmd entry list;
      ae_commit : int;
    }
  | Append_reply of { ar_term : int; ar_ok : bool; ar_match : int }

type role = Follower | Candidate | Leader

type 'cmd t

(** Create one group member and start its timers. [peers] is the group
    without [self]. With [initial_leader] the node starts as the term-1
    leader (the usual bootstrap for a replica group with a designated
    head). *)
val create :
  ?election_timeout:float ->
  ?heartbeat_every:float ->
  self:Kernel.Types.node_id ->
  peers:Kernel.Types.node_id list ->
  send:(dst:Kernel.Types.node_id -> 'cmd msg -> unit) ->
  timer:(delay:float -> (unit -> unit) -> unit) ->
  rng:Sim.Rng.t ->
  on_commit:(index:int -> 'cmd -> unit) ->
  ?initial_leader:bool ->
  unit ->
  'cmd t

val handle : 'cmd t -> src:Kernel.Types.node_id -> 'cmd msg -> unit

(** Append a command to the leader's log (asserts leadership); returns
    its log index. [on_commit] fires once a majority holds it. *)
val propose : 'cmd t -> 'cmd -> int

val is_leader : 'cmd t -> bool

(** Halt timers and message processing (simulates a crashed node). *)
val stop : 'cmd t -> unit
